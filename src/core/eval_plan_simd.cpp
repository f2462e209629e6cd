/**
 * @file
 * AVX2 row ops of the lane-blocked executor (x86-64 only; this
 * translation unit is compiled with -mavx2 and entered only after
 * hostBlockBodies()'s runtime CPUID probe succeeds, so the rest of the
 * library stays at the baseline ISA).
 *
 * A full block is kEvalBlockLanes == 8 volleys, so every value row is
 * two 256-bit vectors of four uint64 times each. AVX2 has no unsigned
 * 64-bit compare, so min/max/lt flip the sign bit of both operands and
 * use the signed vpcmpgtq — the classic bias trick, exact for every
 * bit pattern including the all-ones inf representation. Saturating
 * delay addition keeps the branchless form of the scalar rows: a
 * wrapped sum compares below its operand, and OR-ing the resulting
 * all-ones compare mask into the sum lands exactly on inf.
 */

#include <immintrin.h>

#include <cstdint>
#include <limits>

#include "core/eval_block_body.hpp"

namespace st::detail {

namespace {

/** a > b, unsigned per 64-bit lane (all-ones mask where true). */
inline __m256i
vgtu(__m256i a, __m256i b)
{
    // The sign-bit flip makes signed vpcmpgtq order unsigned operands.
    const __m256i bias =
        _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                              _mm256_xor_si256(b, bias));
}

inline __m256i
vmin(__m256i a, __m256i b)
{
    return _mm256_blendv_epi8(a, b, vgtu(a, b));
}

inline __m256i
vmax(__m256i a, __m256i b)
{
    return _mm256_blendv_epi8(b, a, vgtu(a, b));
}

/** a where a < b, inf elsewhere (the lt gate). */
inline __m256i
vlt(__m256i a, __m256i b)
{
    return _mm256_blendv_epi8(_mm256_set1_epi64x(-1), a, vgtu(b, a));
}

/** Saturating x + d: a wrapped sum ORs to the all-ones inf pattern. */
inline __m256i
vsat(__m256i x, __m256i d)
{
    const __m256i s = _mm256_add_epi64(x, d);
    return _mm256_or_si256(s, vgtu(x, s));
}

struct Avx2Row
{
    /** One value row: 8 lanes as two 4x64 vectors. */
    struct Row
    {
        __m256i lo, hi;
    };
    static constexpr size_t lanes = 8;

    static Row
    load(const Time *p)
    {
        // __m256i loads may alias any object representation, and Time
        // is a single trivially copyable uint64.
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p + 4))};
    }
    static void
    store(Time *p, Row r)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), r.lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p + 4), r.hi);
    }
    static Row
    splat(Time::rep x)
    {
        const __m256i c = _mm256_set1_epi64x(static_cast<long long>(x));
        return {c, c};
    }
    /** The 4x64 op @p f on each half of the row. */
    template <class F>
    static Row
    each(Row a, Row b, F f)
    {
        return {f(a.lo, b.lo), f(a.hi, b.hi)};
    }
    static Row min(Row a, Row b) { return each(a, b, vmin); }
    static Row max(Row a, Row b) { return each(a, b, vmax); }
    static Row lt(Row a, Row b) { return each(a, b, vlt); }
    static Row sat(Row x, Time::rep d) { return each(x, splat(d), vsat); }
};

} // namespace

void
runBlockLanes8Avx2(const EvalProgramView &prog, std::span<const Node> nodes,
                   EvalBlockLanes rows, std::vector<Time> &values)
{
    runBlockBody<Avx2Row>(prog, nodes, rows, values);
}

} // namespace st::detail
