/**
 * @file
 * The benchmark's workloads: one pass = the offline engine phases
 * (plan, GRL, STDP) before any serving thread exists, then serving
 * phases through the daemon's load path over loopback TCP.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "loadgen.hpp"

namespace perfbench {

/** Pool lanes and server nthreads of every workload. */
inline constexpr size_t kLanes = 4;

/** A workload's fixed parameters plus the run's seed and length. */
struct WorkloadConfig
{
    std::string name;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Run outputs, relative to the working directory. */
    std::string outDir = ".bench_out";

    // Serving part.
    std::string model = "tnn"; //!< "tnn" (16-48-16 WTA) | "plan"
    size_t sessions = 4;
    double lightRate = 0;
    double busyRate = 0;
    std::vector<double> ladder;
    double limitMs = 10;
    size_t planInputs = 64; //!< serving plan network width
    size_t planLevels = 64; //!< serving plan network depth

    // Engine part (the sizes both workloads share are constants in
    // workloads.cpp).
    size_t srm0Synapses = 16;
    size_t stdpLines = 16;
    size_t stdpNeurons = 48;
    size_t lanes = kLanes;
};

/**
 * The fixed parameters of workload @p name (`serve_fanin` or
 * `serve_plan_single`): absolute rates, ladder, limit and sizes, chosen
 * on the code the benchmark was written against. Throws
 * std::invalid_argument for any other name.
 */
WorkloadConfig workloadConfig(const std::string &name);

/** What one pass measured. */
struct PassResult
{
    MetricSet endToEnd;
    MetricSet perLayer;
    bool correct = true;
    std::vector<std::string> failures; //!< correctness findings
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> log; //!< human-readable phase lines
    double grlEventsPerVolley = 0; //!< for the run header
};

/**
 * Run one pass of @p cfg lasting about @p seconds of measured time.
 * Spans go to @p spans when it is enabled; per-layer metrics are
 * filled either way.
 */
PassResult runPass(const WorkloadConfig &cfg, double seconds,
                   SpanLog &spans);

/**
 * Host and run header, one JSON object: host, build, the workload's
 * fixed parameters and the events per volley @p result measured.
 */
std::string runHeader(const WorkloadConfig &cfg, const PassResult &result);

/** Build the serving model of @p cfg and pack it to its STMF file. */
void packServingModel(const WorkloadConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
