/**
 * @file
 * loft-observer-hook-parity
 *
 * A new virtual hook added to the observer base (`loft-tidy:
 * observer-base`, i.e. NetObserver) must be a conscious decision for
 * every consumer, not a silent no-op.
 *
 * Enforcement:
 *  - a `loft-tidy: complete-observer` class (NetworkAuditor,
 *    TelemetryCollector, ...) must override every hook or consciously
 *    waive it with `loft-tidy: hook-ignored(onFoo)` next to the class;
 *  - a waiver for a hook that is in fact overridden, or that the base
 *    does not declare, is itself flagged (stale waivers rot).
 *
 * Pass-through observers (ObserverMux, DeferredObserver) need no
 * check: they forward whole NetEvent records through observe(), and
 * the typed hooks are protected, so a per-hook forwarder that could
 * miss one does not compile.
 *
 * The hook vocabulary is every identifier matching `on[A-Z]\w*`
 * declared with a parameter list inside the observer-base class body.
 */

#include "checks.hh"

#include <cctype>

namespace loft_tidy
{

namespace
{

bool
isHookName(const std::string &s)
{
    return s.size() > 2 && s[0] == 'o' && s[1] == 'n' &&
           std::isupper(static_cast<unsigned char>(s[2]));
}

/** All `onX(` method names appearing in a class body. */
std::set<std::string>
hookNamesIn(const FileUnit &u, const ClassDecl &cls)
{
    std::set<std::string> names;
    for (std::size_t i = cls.bodyBegin; i < cls.bodyEnd; ++i) {
        const Token &t = u.tok(i);
        if (t.kind == Token::Kind::Ident && isHookName(t.text) &&
            u.tok(i + 1).text == "(")
            names.insert(t.text);
    }
    return names;
}

struct ObserverClass
{
    const FileUnit *unit = nullptr;
    ClassDecl cls;
    std::set<std::string> overrides;
    std::vector<Annotation> ignores;
};

} // namespace

void
checkObserverParity(const Context &ctx, std::vector<Diagnostic> &out)
{
    // Gather observer-base hook vocabularies and complete-observer
    // classes across the whole run (they usually live in different
    // headers). Declaration-only aux units contribute the base
    // vocabulary but are never flagged themselves.
    std::set<std::string> hooks;
    std::vector<ObserverClass> completes;

    auto scan = [&](const FileUnit &u, bool diagnosable) {
        const auto &annotations = ctx.factsOf(u).annotations;
        for (const ClassDecl &cls : ctx.factsOf(u).classes) {
            bool isBase = false;
            bool isComplete = false;
            std::vector<Annotation> ignores;
            for (const Annotation &a :
                 annotationsFor(u, cls, annotations)) {
                if (a.directive == "observer-base")
                    isBase = true;
                else if (a.directive == "complete-observer")
                    isComplete = true;
                else if (a.directive == "hook-ignored")
                    ignores.push_back(a);
            }
            if (isBase) {
                auto names = hookNamesIn(u, cls);
                hooks.insert(names.begin(), names.end());
            }
            if (isComplete && diagnosable) {
                ObserverClass oc;
                oc.unit = &u;
                oc.cls = cls;
                oc.overrides = hookNamesIn(u, cls);
                oc.ignores = std::move(ignores);
                completes.push_back(std::move(oc));
            }
        }
    };
    for (const FileUnit &u : ctx.units)
        scan(u, true);
    for (const FileUnit &u : ctx.auxUnits)
        scan(u, false);

    if (hooks.empty())
        return; // no observer-base in this run: nothing to enforce

    for (const ObserverClass &oc : completes) {
        std::set<std::string> waived;
        for (const Annotation &a : oc.ignores) {
            if (!hooks.count(a.arg)) {
                report(*oc.unit, a.line, 1, kCheckObserverParity,
                       "waiver for '" + a.arg + "' on '" +
                           oc.cls.name +
                           "' does not match any observer-base hook "
                           "(stale or misspelled waiver)",
                       out);
                continue;
            }
            if (oc.overrides.count(a.arg)) {
                report(*oc.unit, a.line, 1, kCheckObserverParity,
                       "hook '" + a.arg + "' on '" + oc.cls.name +
                           "' is both overridden and waived; delete "
                           "the stale hook-ignored annotation",
                       out);
                continue;
            }
            waived.insert(a.arg);
        }
        for (const std::string &h : hooks) {
            if (oc.overrides.count(h) || waived.count(h))
                continue;
            report(*oc.unit, oc.cls.line, oc.cls.col,
                   kCheckObserverParity,
                   "'" + oc.cls.name + "' neither overrides nor "
                       "waives observer hook '" + h +
                       "'; events through this hook would be "
                       "silently lost",
                   out);
        }
    }
}

} // namespace loft_tidy
