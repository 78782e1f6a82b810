// Shared plumbing for the benchmark: options, the result record every
// workload fills in, clocks, CPU and memory readings, and percentiles.
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;  // length of the timed phase
    bool trace = false;   // emit the per-layer table instead of end-to-end
    // Input-size multiplier; the self-test runs every workload small.
    double scale = 1.0;
    // Correctness-check self-test: delete one FIB entry behind the
    // stack's back before the final check, which must count it.
    bool inject_fib_delete = false;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct Result {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    // A failed check: counted against `attempted`, explained on stderr.
    void fail(const std::string& why, uint64_t n = 1);
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// Process CPU time (user + system) in seconds.
double process_cpu_s();
// Peak resident set size of the process, in MiB.
double peak_rss_mb();
// CPU seconds consumed so far by one thread of this process.
double thread_cpu_s(int tid);
int current_tid();

// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
    return percentile(std::move(v), 50);
}

// The end-to-end metrics every workload reports, in BENCHMARK.json order.
struct EndToEnd {
    double throughput_per_s = 0;
    double latency_p50_ms = 0;
    double latency_tail_ms = 0;
    double setup_s = 0;
    double cpu_s = 0;
    double rss_mb = 0;
};
void add_end_to_end(Result& r, const EndToEnd& e);

// Per-layer metrics, all emitted by every traced run (see README.md for
// which workload each one describes and what a stand-in value means).
struct LayerTable {
    double bgp_ingest_us_per_route = 0;
    double bgp_routes_per_batch = 0;
    double stage_encode_ns_per_route = 0;
    double stage_decode_ns_per_route = 0;
    double stage_wire_bytes_per_route = 0;
    double ipc_xrls_per_kroute = 0;
    double ipc_oneway_us_per_xrl = 0;
    double rib_push_us_per_route = 0;
    double rib_update_us = 0;
    double fea_apply_ns_per_route = 0;
    double fea_fib_ops_per_flap = 0;
    double span_bgp_emit_p50_us = 0;
    double span_bgp_emit_p99_us = 0;
    double span_rib_emit_p50_us = 0;
    double span_rib_emit_p99_us = 0;
    double span_fib_p50_us = 0;
    double span_fib_p99_us = 0;
    double span_residual_share = 0;
    double thread_bgp_busy = 0;
    double thread_rib_busy = 0;
    double thread_fea_busy = 0;
    double thread_driver_busy = 0;
    double ospf_spf_full_per_flap = 0;
    double ospf_spf_incr_per_flap = 0;
    double ospf_floods_per_flap = 0;
    double ospf_spf_full_us = 0;
    double gen_late_p99_ms = 0;
    double trace_overhead_share = 0;
};
void add_layer_table(Result& r, const LayerTable& t);

// Prints the contract's last line: {"correct", "attempted", "failed",
// "metrics"}.
void print_result(const Result& r);

}  // namespace perfbench

#endif
