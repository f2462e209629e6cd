/**
 * @file
 * AVX-512 body of runProgramBlock (x86-64 only; this translation
 * unit is compiled with -mavx512f and entered only after the caller's
 * runtime CPUID probe succeeds, so the rest of the library stays at
 * the baseline ISA).
 *
 * A full block is kEvalBlockLanes == 8 volleys, so every value row is
 * exactly one 512-bit vector of eight uint64 times — half the loads,
 * stores and ALU ops of the two-vector AVX2 body. Unlike AVX2, the
 * 512-bit ISA has native unsigned 64-bit min/max and compares, so the
 * sign-bias trick disappears: min/max are single instructions and the
 * lt gate is one unsigned compare-into-mask plus a mask blend.
 * Saturating delay addition selects inf wherever the wrapped sum
 * compares (unsigned) below its operand — exact for every bit pattern
 * including the all-ones inf representation, same as the scalar body.
 */

#include "core/eval_plan.hpp"

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "core/network.hpp"

namespace st::detail {

namespace {

static_assert(kEvalBlockLanes == 8,
              "the AVX-512 executor hard-codes one 8-wide vector per row");

inline __m512i
loadRow(const Time *p)
{
    // __m512i loads may alias any object representation, and Time is
    // a single trivially copyable uint64.
    return _mm512_loadu_si512(p);
}

inline void
storeRow(Time *p, __m512i r)
{
    _mm512_storeu_si512(p, r);
}

inline __m512i
vinf()
{
    return _mm512_set1_epi64(-1);
}

/** a where a < b (unsigned), inf elsewhere (the lt gate). */
inline __m512i
vlt(__m512i a, __m512i b)
{
    const __mmask8 lt = _mm512_cmplt_epu64_mask(a, b);
    return _mm512_mask_blend_epi64(lt, vinf(), a);
}

/** Saturating x + d: lanes whose sum wrapped land exactly on inf. */
inline __m512i
vsat(__m512i x, Time::rep d)
{
    const __m512i dv = _mm512_set1_epi64(static_cast<long long>(d));
    const __m512i s = _mm512_add_epi64(x, dv);
    const __mmask8 wrapped = _mm512_cmplt_epu64_mask(s, x);
    return _mm512_mask_blend_epi64(wrapped, s, vinf());
}

} // namespace

void
runBlockLanes8Avx512(const EvalProgramView &prog, std::span<const Node> nodes,
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
                storeRow(v + i * lanes,
                         _mm512_set1_epi64(static_cast<long long>(
                             std::bit_cast<Time::rep>(
                                 nodes[prog.extra[i]].configValue))));
            }
            break;
          case PlanOp::Min2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                storeRow(v + i * lanes,
                         _mm512_min_epu64(loadRow(rowOf(slot[e])),
                                          loadRow(rowOf(slot[e + 1]))));
            }
            break;
          }
          case PlanOp::Max2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                storeRow(v + i * lanes,
                         _mm512_max_epu64(loadRow(rowOf(slot[e])),
                                          loadRow(rowOf(slot[e + 1]))));
            }
            break;
          }
          case PlanOp::Lt2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                storeRow(v + i * lanes,
                         vlt(loadRow(rowOf(slot[e])),
                             loadRow(rowOf(slot[e + 1]))));
            }
            break;
          }
          case PlanOp::Min:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const uint32_t eend = prog.argBeg[i + 1];
                __m512i m = vsat(loadRow(rowOf(slot[beg])), dly[beg]);
                for (uint32_t e = beg + 1; e < eend; ++e) {
                    m = _mm512_min_epu64(
                        m, vsat(loadRow(rowOf(slot[e])), dly[e]));
                }
                storeRow(v + i * lanes, m);
            }
            break;
          case PlanOp::Max:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const uint32_t eend = prog.argBeg[i + 1];
                __m512i m = vsat(loadRow(rowOf(slot[beg])), dly[beg]);
                for (uint32_t e = beg + 1; e < eend; ++e) {
                    m = _mm512_max_epu64(
                        m, vsat(loadRow(rowOf(slot[e])), dly[e]));
                }
                storeRow(v + i * lanes, m);
            }
            break;
          case PlanOp::Lt:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const __m512i a =
                    vsat(loadRow(rowOf(slot[beg])), dly[beg]);
                const __m512i b =
                    vsat(loadRow(rowOf(slot[beg + 1])), dly[beg + 1]);
                storeRow(v + i * lanes, vlt(a, b));
            }
            break;
        }
    }
}

} // namespace st::detail
