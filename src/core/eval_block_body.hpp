/**
 * @file
 * The one op switch of the lane-blocked executor (private to
 * src/core). Every body of runProgramBlock instantiates
 * runBlockBody<R> over a row-ops type R that supplies only its ISA's
 * lane arithmetic on one value row of kEvalBlockLanes uint64 times:
 *
 *   Row                       the register form of one row
 *   lanes                     == kEvalBlockLanes
 *   load(const Time *)        -> Row (unaligned)
 *   store(Time *, Row)
 *   splat(Time::rep)          -> Row with every lane equal
 *   min(Row, Row)             lane-wise unsigned min (first arrival)
 *   max(Row, Row)             lane-wise unsigned max (last arrival)
 *   lt(Row a, Row b)          a where a < b (unsigned), inf elsewhere
 *   sat(Row x, Time::rep d)   saturating x + d: a wrapped lane is inf
 *
 * Time's total order is the plain uint64 order (inf is the all-ones
 * maximum), so these are exactly the lattice operations of the
 * algebra, and every instantiation is bit-identical to runProgram on
 * every lane. Each ISA's instantiation lives in its own translation
 * unit, compiled with that ISA's -m flag, so R must have internal
 * linkage there.
 */

#ifndef ST_CORE_EVAL_BLOCK_BODY_HPP
#define ST_CORE_EVAL_BLOCK_BODY_HPP

#include <bit>
#include <cstdint>

#include "core/eval_plan.hpp"
#include "core/network.hpp"

namespace st::detail {

/**
 * Evaluate @p prog for the kEvalBlockLanes volleys of one full block
 * into the slot-major arena @p values (see runProgramBlock).
 */
template <class R>
void
runBlockBody(const EvalProgramView &prog, std::span<const Node> nodes,
             EvalBlockLanes rows, std::vector<Time> &values)
{
    static_assert(R::lanes == kEvalBlockLanes);
    using Row = typename R::Row;
    constexpr size_t lanes = kEvalBlockLanes;
    values.resize(prog.op.size() * lanes);
    Time *v = values.data();
    const uint32_t *slot = prog.argSlot.data();
    const Time::rep *dly = prog.argDelay.data();
    // Operand edge e's row as stored, and with its folded delay added.
    auto raw = [&](uint32_t e) {
        return R::load(v + size_t{slot[e]} * lanes);
    };
    auto arg = [&](uint32_t e) { return R::sat(raw(e), dly[e]); };
    auto put = [&](size_t i, Row r) { R::store(v + i * lanes, r); };
    // One dispatch per same-op run, as in runProgram.
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
            for (; i < end; ++i)
                put(i, R::splat(std::bit_cast<Time::rep>(
                           nodes[prog.extra[i]].configValue)));
            break;
          case PlanOp::Min2: {
            // Two zero-delay edges back to back: stride the cursor.
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2)
                put(i, R::min(raw(e), raw(e + 1)));
            break;
          }
          case PlanOp::Max2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2)
                put(i, R::max(raw(e), raw(e + 1)));
            break;
          }
          case PlanOp::Lt2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2)
                put(i, R::lt(raw(e), raw(e + 1)));
            break;
          }
          case PlanOp::Min:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const uint32_t eend = prog.argBeg[i + 1];
                Row m = arg(beg);
                for (uint32_t e = beg + 1; e < eend; ++e)
                    m = R::min(m, arg(e));
                put(i, m);
            }
            break;
          case PlanOp::Max:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const uint32_t eend = prog.argBeg[i + 1];
                Row m = arg(beg);
                for (uint32_t e = beg + 1; e < eend; ++e)
                    m = R::max(m, arg(e));
                put(i, m);
            }
            break;
          case PlanOp::Lt:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                put(i, R::lt(arg(beg), arg(beg + 1)));
            }
            break;
        }
    }
}

/** The per-ISA entry points hostBlockBodies() lists: x86-64 only
 *  (eval_plan_simd.cpp, eval_plan_simd512.cpp), aarch64 only
 *  (eval_plan_simd_neon.cpp). */
BlockBodyFn runBlockLanes8Avx2;
BlockBodyFn runBlockLanes8Avx512;
BlockBodyFn runBlockLanes8Neon;

} // namespace st::detail

#endif // ST_CORE_EVAL_BLOCK_BODY_HPP
