/**
 * @file
 * NEON row ops of the lane-blocked executor (aarch64 only). NEON is
 * baseline on aarch64, so unlike the x86 bodies there is no runtime
 * probe and no special compile flag — hostBlockBodies() lists this
 * body first there (the CI arm64 job runs the compiled-evaluator
 * differential tests against it on every PR).
 *
 * A full block is kEvalBlockLanes == 8 volleys, so every value row is
 * four 128-bit vectors of two uint64 times each. aarch64 NEON has
 * unsigned 64-bit compares (cmhi) but no 64-bit min/max, so min/max
 * are one compare + one bit-select per vector. Saturating delay
 * addition keeps the branchless form of the scalar rows: a wrapped
 * sum compares (unsigned) below its operand, and OR-ing the resulting
 * all-ones compare mask into the sum lands exactly on inf.
 */

#include "core/eval_block_body.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstdint>

namespace st::detail {

namespace {

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
    return vbslq_u64(vcltq_u64(a, b), a, vdupq_n_u64(~uint64_t{0}));
}

/** Saturating x + d: a wrapped sum ORs to the all-ones inf pattern. */
inline uint64x2_t
vsat(uint64x2_t x, uint64x2_t d)
{
    const uint64x2_t s = vaddq_u64(x, d);
    return vorrq_u64(s, vcgtq_u64(x, s));
}

struct NeonRow
{
    /** One value row: 8 lanes as four 2x64 vectors. */
    struct Row
    {
        uint64x2_t v0, v1, v2, v3;
    };
    static constexpr size_t lanes = 8;

    static Row
    load(const Time *p)
    {
        // Time is a single trivially copyable uint64, so the row is a
        // plain array of eight uint64 lanes.
        const auto *u = reinterpret_cast<const uint64_t *>(p);
        return {vld1q_u64(u), vld1q_u64(u + 2), vld1q_u64(u + 4),
                vld1q_u64(u + 6)};
    }
    static void
    store(Time *p, Row r)
    {
        auto *u = reinterpret_cast<uint64_t *>(p);
        vst1q_u64(u, r.v0);
        vst1q_u64(u + 2, r.v1);
        vst1q_u64(u + 4, r.v2);
        vst1q_u64(u + 6, r.v3);
    }
    static Row
    splat(Time::rep x)
    {
        const uint64x2_t c = vdupq_n_u64(x);
        return {c, c, c, c};
    }
    /** The 2x64 op @p f on each quarter of the row. */
    template <class F>
    static Row
    each(Row a, Row b, F f)
    {
        return {f(a.v0, b.v0), f(a.v1, b.v1), f(a.v2, b.v2), f(a.v3, b.v3)};
    }
    static Row min(Row a, Row b) { return each(a, b, vmin); }
    static Row max(Row a, Row b) { return each(a, b, vmax); }
    static Row lt(Row a, Row b) { return each(a, b, vlt); }
    static Row sat(Row x, Time::rep d) { return each(x, splat(d), vsat); }
};

} // namespace

void
runBlockLanes8Neon(const EvalProgramView &prog, std::span<const Node> nodes,
                   EvalBlockLanes rows, std::vector<Time> &values)
{
    runBlockBody<NeonRow>(prog, nodes, rows, values);
}

} // namespace st::detail

#endif // __aarch64__
