/**
 * @file
 * loft-steady-state-alloc
 *
 * The zero-allocation invariant (docs/SCALE.md): once warm-up has
 * grown every vector, ring, and buffer to its high-water mark, the
 * measurement window must run with zero heap allocations — the
 * census in sim/alloc.cc counts every operator new in the process and
 * the 32x32 soaks plus bench_scale gate on an exact zero.
 *
 * This check guards the per-cycle code paths that invariant depends
 * on. A function whose comment block (or signature line) carries
 * `// loft-tidy: steady-state-hot` declares itself part of the
 * per-cycle steady state; inside its body every allocation-shaped
 * construct is flagged:
 *
 *   - `new` expressions (including placement new, which is fine into
 *     reused storage but must say so), and
 *   - `push_back` / `emplace_back` / `emplace` calls, which allocate
 *     whenever they outgrow capacity.
 *
 * A flagged line is accepted when it (or the comment line above it)
 * carries a `// loft-tidy: pooled(reason)` annotation asserting that the
 * target's capacity is reserved at construction or plateaus in
 * warm-up (the reason should say where the capacity comes from), or an
 * ordinary `// NOLINT(loft-steady-state-alloc)`. The annotation is a
 * reviewed claim, not a proof — the allocation census in tests/test_alloc.cc
 * and the ScaleSoak suite are the ground truth; this check exists so
 * a new unpooled call in a hot path is questioned at lint time, not
 * discovered as a soak failure later.
 *
 * Lexical simplifications (consistent with the rest of the engine):
 * the hot region is the first balanced `{...}` after the annotation,
 * and call names are matched textually, so a user-defined `push_back`
 * on a ring or slab type still needs its `pooled(...)` note — which is
 * exactly the documentation the reader wants there anyway.
 */

#include "checks.hh"

namespace loft_tidy
{

namespace
{

bool
isAllocCallName(const std::string &t)
{
    return t == "push_back" || t == "emplace_back" || t == "emplace";
}

void
scanHotBody(const FileUnit &u, std::size_t begin, std::size_t end,
            const std::set<int> &pooledLines,
            std::vector<Diagnostic> &out)
{
    for (std::size_t i = begin; i < end; ++i) {
        const Token &t = u.tok(i);
        if (t.kind != Token::Kind::Ident)
            continue;
        std::string what;
        if (t.text == "new") {
            what = "'new' expression";
        } else if (isAllocCallName(t.text) &&
                   u.tok(i + 1).text == "(") {
            what = "'" + t.text + "' call";
        } else {
            continue;
        }
        // Accepted on the same line or (like NOLINTNEXTLINE) the
        // comment line above — long call expressions need the room.
        if (pooledLines.count(t.line) || pooledLines.count(t.line - 1))
            continue; // reviewed: capacity is pooled/reserved
        report(u, t.line, t.col, kCheckSteadyStateAlloc,
               what +
                   " in a steady-state-hot function may heap-allocate "
                   "during the measurement window; route it through a "
                   "ring or reserved, reused vector and annotate "
                   "the line with `loft-tidy: pooled(where the "
                   "capacity comes from)`",
               out);
    }
}

} // namespace

void
checkSteadyStateAlloc(const Context &ctx, std::vector<Diagnostic> &out)
{
    for (const FileUnit &u : ctx.units) {
        const std::vector<Annotation> &anns =
            ctx.factsOf(u).annotations;
        std::set<int> pooledLines;
        for (const Annotation &a : anns)
            if (a.directive == "pooled")
                pooledLines.insert(a.line);
        for (const Annotation &a : anns) {
            if (a.directive != "steady-state-hot")
                continue;
            // The hot region is the first balanced brace body at or
            // after the annotation line: this covers both a comment
            // block above the signature and a trailing comment on it.
            std::size_t i = 0;
            while (i < u.tokens.size() && u.tok(i).line < a.line)
                ++i;
            while (i < u.tokens.size() &&
                   !(u.tok(i).kind == Token::Kind::Punct &&
                     u.tok(i).text == "{"))
                ++i;
            if (i >= u.tokens.size())
                continue; // dangling annotation: nothing to scan
            const std::size_t end = skipBalanced(u, i, "{", "}");
            scanHotBody(u, i + 1, end, pooledLines, out);
        }
    }
}

} // namespace loft_tidy
