/**
 * @file
 * AVX2 body of runProgramBlock (x86-64 only; this translation
 * unit is compiled with -mavx2 and entered only after the caller's
 * runtime CPUID probe succeeds, so the rest of the library stays at
 * the baseline ISA).
 *
 * A full block is kEvalBlockLanes == 8 volleys, so every value row is
 * two 256-bit vectors of four uint64 times each. AVX2 has no unsigned
 * 64-bit compare, so min/max/lt flip the sign bit of both operands and
 * use the signed vpcmpgtq — the classic bias trick, exact for every
 * bit pattern including the all-ones inf representation. Saturating
 * delay addition keeps the branchless form of the scalar executor:
 * a wrapped sum compares below its operand, and OR-ing the resulting
 * all-ones compare mask into the sum lands exactly on inf.
 */

#include "core/eval_plan.hpp"

#include <immintrin.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "core/network.hpp"

namespace st::detail {

namespace {

static_assert(kEvalBlockLanes == 8,
              "the AVX2 executor hard-codes two 4-wide vectors per row");

/** One value row of a full block: 8 lanes as two 4x64 vectors. */
struct Row
{
    __m256i lo, hi;
};

inline Row
loadRow(const Time *p)
{
    // __m256i loads may alias any object representation, and Time is
    // a single trivially copyable uint64.
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(p + 4))};
}

inline void
storeRow(Time *p, Row r)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), r.lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p + 4), r.hi);
}

/** Sign-bit flip making signed vpcmpgtq order unsigned operands. */
inline __m256i
bias()
{
    return _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
}

/** a > b, unsigned per 64-bit lane (all-ones mask where true). */
inline __m256i
vgtu(__m256i a, __m256i b)
{
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias()),
                              _mm256_xor_si256(b, bias()));
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

inline Row
satRow(Row r, Time::rep d)
{
    const __m256i dv =
        _mm256_set1_epi64x(static_cast<long long>(d));
    return {vsat(r.lo, dv), vsat(r.hi, dv)};
}

} // namespace

void
runBlockLanes8Avx2(const EvalProgramView &prog, std::span<const Node> nodes,
                   EvalBlockLanes rows, std::vector<Time> &values)
{
    constexpr size_t lanes = kEvalBlockLanes;
    values.resize(prog.op.size() * lanes);
    Time *v = values.data();
    const uint32_t *slot = prog.argSlot.data();
    const Time::rep *dly = prog.argDelay.data();
    auto rowOf = [&](uint32_t s) { return v + size_t{s} * lanes; };
    size_t i = 0;
    for (uint32_t runedge : prog.runEnd) {
        const size_t end = runedge;
        switch (static_cast<PlanOp>(prog.op[i])) {
          case PlanOp::Input:
            // Lanes live in separate volley vectors here, so this
            // stays a scalar gather.
            for (; i < end; ++i) {
                Time *o = v + i * lanes;
                const uint32_t src = prog.extra[i];
                for (size_t l = 0; l < lanes; ++l)
                    o[l] = rows[l][src];
            }
            break;
          case PlanOp::Config:
            for (; i < end; ++i) {
                const __m256i c =
                    _mm256_set1_epi64x(static_cast<long long>(
                        std::bit_cast<Time::rep>(
                            nodes[prog.extra[i]].configValue)));
                storeRow(v + i * lanes, Row{c, c});
            }
            break;
          case PlanOp::Min2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                const Row a = loadRow(rowOf(slot[e]));
                const Row b = loadRow(rowOf(slot[e + 1]));
                storeRow(v + i * lanes,
                         Row{vmin(a.lo, b.lo), vmin(a.hi, b.hi)});
            }
            break;
          }
          case PlanOp::Max2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                const Row a = loadRow(rowOf(slot[e]));
                const Row b = loadRow(rowOf(slot[e + 1]));
                storeRow(v + i * lanes,
                         Row{vmax(a.lo, b.lo), vmax(a.hi, b.hi)});
            }
            break;
          }
          case PlanOp::Lt2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                const Row a = loadRow(rowOf(slot[e]));
                const Row b = loadRow(rowOf(slot[e + 1]));
                storeRow(v + i * lanes,
                         Row{vlt(a.lo, b.lo), vlt(a.hi, b.hi)});
            }
            break;
          }
          case PlanOp::Min:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const uint32_t eend = prog.argBeg[i + 1];
                Row m = satRow(loadRow(rowOf(slot[beg])), dly[beg]);
                for (uint32_t e = beg + 1; e < eend; ++e) {
                    const Row x =
                        satRow(loadRow(rowOf(slot[e])), dly[e]);
                    m = Row{vmin(m.lo, x.lo), vmin(m.hi, x.hi)};
                }
                storeRow(v + i * lanes, m);
            }
            break;
          case PlanOp::Max:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const uint32_t eend = prog.argBeg[i + 1];
                Row m = satRow(loadRow(rowOf(slot[beg])), dly[beg]);
                for (uint32_t e = beg + 1; e < eend; ++e) {
                    const Row x =
                        satRow(loadRow(rowOf(slot[e])), dly[e]);
                    m = Row{vmax(m.lo, x.lo), vmax(m.hi, x.hi)};
                }
                storeRow(v + i * lanes, m);
            }
            break;
          case PlanOp::Lt:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const Row a =
                    satRow(loadRow(rowOf(slot[beg])), dly[beg]);
                const Row b = satRow(loadRow(rowOf(slot[beg + 1])),
                                     dly[beg + 1]);
                storeRow(v + i * lanes,
                         Row{vlt(a.lo, b.lo), vlt(a.hi, b.hi)});
            }
            break;
        }
    }
}

} // namespace st::detail
