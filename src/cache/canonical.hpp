// Problem canonicalization — the schedule cache's notion of identity.
//
// Two `.paws` files that differ only in declaration order, whitespace or
// comments describe the same scheduling problem and must map to the same
// cache key. Whitespace and comments never survive parsing, so the work
// left here is ordering: the canonical form renders the parsed `Problem`
// (dense-id SoA) with
//   * resources sorted by name;
//   * tasks in topological-lexicographic order — ascending longest-path
//     distance from the anchor (a property of the constraint system, not
//     of declaration order), ties broken by name; when the constraint
//     system is infeasible (positive cycle) the depth is undefined and
//     the order degrades to name-only, which is still deterministic;
//   * constraints sorted by (kind, from-name, to-name, separation).
// Every semantic field — problem name, limits, per-task delay/power/
// resource/criticality, constraint bounds — is rendered in exact integer
// (milliwatt / tick) form, so any semantic edit changes the text and
// therefore the FNV-1a-64 hash. The problem name participates because
// cached schedules rebind through `io::parseSchedule`, which checks it.
// Tasks and constraints sort on precomputed integer name ranks.
//
// The *structural* hash is the same rendering with the power limits
// (pmax/pmin/background) and each task's delay/power removed: problems
// equal under it have the same task/resource/constraint skeleton and
// differ only by a "small delta" (changed limits, one task's cost edit) —
// the near-miss revalidation candidates (see cached_solve.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "model/problem.hpp"

namespace paws::cache {

struct CanonicalForm {
  /// Declaration-order-invariant rendering (see file header). Empty for
  /// CanonicalParts::kKeyOnly, which hashes the same bytes as it renders
  /// them and never builds the text.
  std::string text;
  /// fnv1a64 of the rendering — the cache key's problem half, identical
  /// for both CanonicalParts.
  std::uint64_t hash = 0;
  /// Limits/delay/power-blind variant for near-miss candidate lookup.
  /// 0 when the form was computed with CanonicalParts::kKeyOnly.
  std::uint64_t structuralHash = 0;
};

/// How much of the canonical form to compute. The exact-hit path only
/// needs `hash`; building the text or rendering the structural skeleton
/// too would cost the probe for values the hit never reads. The miss path
/// (near-miss lookup, insertion) recomputes the full form — that cost
/// disappears next to any actual solve.
enum class CanonicalParts {
  kKeyOnly,  ///< hash only; text left empty, structuralHash left 0
  kFull,     ///< text, hash and structuralHash
};

[[nodiscard]] CanonicalForm canonicalize(
    const Problem& problem, CanonicalParts parts = CanonicalParts::kFull);

/// The cache key's second half: everything besides the problem that
/// changes the answer. `scheduler` is the pawsc dispatch name (pipeline /
/// serial / list / optimal); `trials` only matters for the pipeline and is
/// normalized to 0 for the others. Deliberately excluded: jobs (results
/// are byte-identical for any worker count) and budgets (budget-tripped
/// results are never inserted).
[[nodiscard]] std::uint64_t optionsFingerprint(std::string_view scheduler,
                                               std::uint32_t trials);

}  // namespace paws::cache
