/**
 * @file
 * NEON body of runProgramBlock (aarch64 only). NEON is baseline on
 * aarch64, so unlike the x86 bodies there is no runtime probe and no
 * special compile flag — runProgramBlock dispatches here
 * unconditionally at compile time (the CI arm64 job runs the
 * compiled-evaluator differential tests against this body on every
 * PR).
 *
 * A full block is kEvalBlockLanes == 8 volleys, so every value row is
 * four 128-bit vectors of two uint64 times each. aarch64 NEON has
 * unsigned 64-bit compares (cmhi) but no 64-bit min/max, so min/max
 * are one compare + one bit-select per vector. Saturating delay
 * addition keeps the branchless form of the scalar executor: a wrapped
 * sum compares (unsigned) below its operand, and OR-ing the resulting
 * all-ones compare mask into the sum lands exactly on inf.
 */

#include "core/eval_plan.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <bit>
#include <cstdint>

#include "core/network.hpp"

namespace st::detail {

namespace {

static_assert(kEvalBlockLanes == 8,
              "the NEON executor hard-codes four 2-wide vectors per row");

/** One value row of a full block: 8 lanes as four 2x64 vectors. */
struct Row
{
    uint64x2_t v0, v1, v2, v3;
};

inline Row
loadRow(const Time *p)
{
    // Time is a single trivially copyable uint64, so the row is a
    // plain array of eight uint64 lanes.
    const auto *u = reinterpret_cast<const uint64_t *>(p);
    return {vld1q_u64(u), vld1q_u64(u + 2), vld1q_u64(u + 4),
            vld1q_u64(u + 6)};
}

inline void
storeRow(Time *p, Row r)
{
    auto *u = reinterpret_cast<uint64_t *>(p);
    vst1q_u64(u, r.v0);
    vst1q_u64(u + 2, r.v1);
    vst1q_u64(u + 4, r.v2);
    vst1q_u64(u + 6, r.v3);
}

inline uint64x2_t
vmin(uint64x2_t a, uint64x2_t b)
{
    // bsl picks its second operand where the mask is set: a > b -> b.
    return vbslq_u64(vcgtq_u64(a, b), b, a);
}

inline uint64x2_t
vmax(uint64x2_t a, uint64x2_t b)
{
    return vbslq_u64(vcgtq_u64(a, b), a, b);
}

/** a where a < b (unsigned), inf elsewhere (the lt gate). */
inline uint64x2_t
vlt(uint64x2_t a, uint64x2_t b)
{
    return vbslq_u64(vcltq_u64(a, b), a,
                     vdupq_n_u64(~uint64_t{0}));
}

/** Saturating x + d: a wrapped sum ORs to the all-ones inf pattern. */
inline uint64x2_t
vsat(uint64x2_t x, uint64x2_t d)
{
    const uint64x2_t s = vaddq_u64(x, d);
    return vorrq_u64(s, vcgtq_u64(x, s));
}

inline Row
minRow(Row a, Row b)
{
    return {vmin(a.v0, b.v0), vmin(a.v1, b.v1), vmin(a.v2, b.v2),
            vmin(a.v3, b.v3)};
}

inline Row
maxRow(Row a, Row b)
{
    return {vmax(a.v0, b.v0), vmax(a.v1, b.v1), vmax(a.v2, b.v2),
            vmax(a.v3, b.v3)};
}

inline Row
ltRow(Row a, Row b)
{
    return {vlt(a.v0, b.v0), vlt(a.v1, b.v1), vlt(a.v2, b.v2),
            vlt(a.v3, b.v3)};
}

inline Row
satRow(Row r, Time::rep d)
{
    const uint64x2_t dv = vdupq_n_u64(static_cast<uint64_t>(d));
    return {vsat(r.v0, dv), vsat(r.v1, dv), vsat(r.v2, dv),
            vsat(r.v3, dv)};
}

} // namespace

void
runBlockLanes8Neon(const EvalProgramView &prog, std::span<const Node> nodes,
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
                const uint64x2_t c =
                    vdupq_n_u64(std::bit_cast<Time::rep>(
                        nodes[prog.extra[i]].configValue));
                storeRow(v + i * lanes, Row{c, c, c, c});
            }
            break;
          case PlanOp::Min2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                storeRow(v + i * lanes,
                         minRow(loadRow(rowOf(slot[e])),
                                loadRow(rowOf(slot[e + 1]))));
            }
            break;
          }
          case PlanOp::Max2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                storeRow(v + i * lanes,
                         maxRow(loadRow(rowOf(slot[e])),
                                loadRow(rowOf(slot[e + 1]))));
            }
            break;
          }
          case PlanOp::Lt2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                storeRow(v + i * lanes,
                         ltRow(loadRow(rowOf(slot[e])),
                               loadRow(rowOf(slot[e + 1]))));
            }
            break;
          }
          case PlanOp::Min:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const uint32_t eend = prog.argBeg[i + 1];
                Row m = satRow(loadRow(rowOf(slot[beg])), dly[beg]);
                for (uint32_t e = beg + 1; e < eend; ++e) {
                    m = minRow(
                        m, satRow(loadRow(rowOf(slot[e])), dly[e]));
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
                    m = maxRow(
                        m, satRow(loadRow(rowOf(slot[e])), dly[e]));
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
                storeRow(v + i * lanes, ltRow(a, b));
            }
            break;
        }
    }
}

} // namespace st::detail

#endif // __aarch64__
