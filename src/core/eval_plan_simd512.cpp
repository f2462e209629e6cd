/**
 * @file
 * AVX-512 row ops of the lane-blocked executor (x86-64 only; this
 * translation unit is compiled with -mavx512f and entered only after
 * hostBlockBodies()'s runtime CPUID probe succeeds, so the rest of the
 * library stays at the baseline ISA).
 *
 * A full block is kEvalBlockLanes == 8 volleys, so every value row is
 * exactly one 512-bit vector of eight uint64 times — half the loads,
 * stores and ALU ops of the two-vector AVX2 rows. Unlike AVX2, the
 * 512-bit ISA has native unsigned 64-bit min/max and compares, so the
 * sign-bias trick disappears: min/max are single instructions and the
 * lt gate is one unsigned compare-into-mask plus a mask blend.
 * Saturating delay addition selects inf wherever the wrapped sum
 * compares (unsigned) below its operand — exact for every bit pattern
 * including the all-ones inf representation, same as the scalar rows.
 */

#include <immintrin.h>

#include "core/eval_block_body.hpp"

namespace st::detail {

namespace {

struct Avx512Row
{
    using Row = __m512i;
    static constexpr size_t lanes = 8;

    static Row
    load(const Time *p)
    {
        // __m512i loads may alias any object representation, and Time
        // is a single trivially copyable uint64.
        return _mm512_loadu_si512(p);
    }
    static void store(Time *p, Row r) { _mm512_storeu_si512(p, r); }
    static Row
    splat(Time::rep x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }
    static Row min(Row a, Row b) { return _mm512_min_epu64(a, b); }
    static Row max(Row a, Row b) { return _mm512_max_epu64(a, b); }
    static Row
    lt(Row a, Row b)
    {
        const __mmask8 lt = _mm512_cmplt_epu64_mask(a, b);
        return _mm512_mask_blend_epi64(lt, _mm512_set1_epi64(-1), a);
    }
    static Row
    sat(Row x, Time::rep d)
    {
        const __m512i s = _mm512_add_epi64(x, splat(d));
        const __mmask8 wrapped = _mm512_cmplt_epu64_mask(s, x);
        return _mm512_mask_blend_epi64(wrapped, s, _mm512_set1_epi64(-1));
    }
};

} // namespace

void
runBlockLanes8Avx512(const EvalProgramView &prog, std::span<const Node> nodes,
                     EvalBlockLanes rows, std::vector<Time> &values)
{
    runBlockBody<Avx512Row>(prog, nodes, rows, values);
}

} // namespace st::detail
