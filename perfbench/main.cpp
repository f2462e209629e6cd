/**
 * @file
 * The repository benchmark's main program (run.py builds and runs it
 * from the repository root; outputs go to .bench_out/ there).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Each workload's rates, ladder, limit and sizes are fixed in
 * workloadConfig(); the seed makes its inputs.
 * --trace 0 runs one untraced pass and reports the end-to-end metrics.
 * --trace 1 runs an untraced and a traced pass of S/2 each, reports
 * the per-layer metrics of the traced pass plus the tracing overhead
 * on every end-to-end metric, and writes the span file. The last line
 * of stdout is the result object; the run's header and phase lines
 * come before it. Exit status: 0 ok, 3 a correctness check failed,
 * 2 usage or runtime error (no result line), including an end-to-end
 * metric that is not a finite number.
 */

#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "ledger.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

WorkloadConfig
parseArgs(int argc, char **argv)
{
    std::string name;
    uint64_t seed = 1;
    double seconds = 0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string v = argv[++i];
        if (key == "--workload")
            name = v;
        else if (key == "--seed")
            seed = std::stoull(v);
        else if (key == "--seconds")
            seconds = std::stod(v);
        else if (key == "--trace")
            trace = v == "1";
        else
            throw std::invalid_argument("unknown argument " + key);
    }
    if (name.empty() || !(seconds > 0))
        throw std::invalid_argument("need --workload and --seconds > 0");
    WorkloadConfig cfg = workloadConfig(name);
    cfg.seed = seed;
    cfg.seconds = seconds;
    cfg.trace = trace;
    return cfg;
}

std::string
resultLine(bool correct, uint64_t attempted, uint64_t failed,
           const MetricSet &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": " << metrics.toJson() << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    // The fixed lane count of the shared pool, read once at its first
    // use (the server and every batch call take kLanes explicitly).
    ::setenv("ST_NUM_THREADS", std::to_string(kLanes).c_str(), 1);
    WorkloadConfig cfg;
    try {
        cfg = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    try {
        std::filesystem::create_directories(cfg.outDir);
        packServingModel(cfg);

        PassResult result;
        MetricSet metrics;
        const std::string stem = cfg.outDir + "/" + cfg.name + "-seed" +
                                 std::to_string(cfg.seed) + "-trace" +
                                 (cfg.trace ? "1" : "0");
        if (!cfg.trace) {
            SpanLog off(false);
            result = runPass(cfg, cfg.seconds, off);
            metrics = result.endToEnd;
        } else {
            SpanLog off(false);
            const PassResult base = runPass(cfg, cfg.seconds / 2, off);
            SpanLog on(true);
            result = runPass(cfg, cfg.seconds / 2, on);
            metrics = result.perLayer;
            // Positive = the traced pass read worse: higher for times
            // and sizes, lower for the *_vps rates.
            for (const auto &[name, vu] : base.endToEnd.entries()) {
                const double untraced = vu.first;
                double change = untraced != 0
                                    ? (result.endToEnd.value(name) -
                                       untraced) /
                                          untraced * 100.0
                                    : 0;
                if (name.size() > 4 &&
                    name.compare(name.size() - 4, 4, "_vps") == 0)
                    change = -change;
                metrics.set("trace.overhead_pct." + name, change, "%");
            }
            result.correct = result.correct && base.correct;
            result.failures.insert(result.failures.end(),
                                   base.failures.begin(),
                                   base.failures.end());
            result.attempted += base.attempted;
            result.failed += base.failed;
            if (!on.writeChromeTrace(stem + ".spans.json"))
                throw std::runtime_error("cannot write " + stem +
                                         ".spans.json");
            std::cout << "spans: " << stem << ".spans.json\n";
        }

        for (const auto &[name, vu] : result.endToEnd.entries())
            if (!std::isfinite(vu.first))
                throw std::runtime_error("end-to-end metric " + name +
                                         " is not a finite number");

        const std::string header = runHeader(cfg, result);
        std::cout << "header: " << header << "\n";
        for (const std::string &line : result.log)
            std::cout << line << "\n";
        for (const std::string &f : result.failures)
            std::cout << "CHECK FAILED: " << f << "\n";
        const std::string line = resultLine(
            result.correct, result.attempted, result.failed, metrics);
        std::ofstream file(stem + ".json");
        file << "{\"header\": " << header << ",\n \"result\": " << line
             << "}\n";
        std::cout << line << std::endl;
        return result.correct ? 0 : 3;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
