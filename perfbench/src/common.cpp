#include "common.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

void Result::fail(const std::string& why, uint64_t n) {
    failed += n;
    std::fprintf(stderr, "FAIL (%llu): %s\n",
                 static_cast<unsigned long long>(n), why.c_str());
}

double process_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

double thread_cpu_s(int tid) {
    std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
    std::string line;
    if (!std::getline(in, line)) return 0;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
    const auto close = line.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 1; i <= 13 && rest >> field; ++i) {
        if (i == 12) utime = std::stoull(field);
        if (i == 13) stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1 - frac) + v[hi] * frac;
}

void add_end_to_end(Result& r, const EndToEnd& e) {
    r.add("throughput_per_s", e.throughput_per_s, "1/s");
    r.add("latency_p50_ms", e.latency_p50_ms, "ms");
    r.add("latency_tail_ms", e.latency_tail_ms, "ms");
    r.add("setup_s", e.setup_s, "s");
    r.add("cpu_s", e.cpu_s, "s");
    r.add("rss_mb", e.rss_mb, "MiB");
}

void add_layer_table(Result& r, const LayerTable& t) {
    r.add("bgp.ingest_us_per_route", t.bgp_ingest_us_per_route, "us");
    r.add("bgp.routes_per_batch", t.bgp_routes_per_batch, "count");
    r.add("stage.encode_ns_per_route", t.stage_encode_ns_per_route, "ns");
    r.add("stage.decode_ns_per_route", t.stage_decode_ns_per_route, "ns");
    r.add("stage.wire_bytes_per_route", t.stage_wire_bytes_per_route, "B");
    r.add("ipc.xrls_per_kroute", t.ipc_xrls_per_kroute, "count");
    r.add("ipc.oneway_us_per_xrl", t.ipc_oneway_us_per_xrl, "us");
    r.add("rib.push_us_per_route", t.rib_push_us_per_route, "us");
    r.add("rib.update_us", t.rib_update_us, "us");
    r.add("fea.apply_ns_per_route", t.fea_apply_ns_per_route, "ns");
    r.add("fea.fib_ops_per_flap", t.fea_fib_ops_per_flap, "count");
    r.add("span.bgp_emit_p50_us", t.span_bgp_emit_p50_us, "us");
    r.add("span.bgp_emit_p99_us", t.span_bgp_emit_p99_us, "us");
    r.add("span.rib_emit_p50_us", t.span_rib_emit_p50_us, "us");
    r.add("span.rib_emit_p99_us", t.span_rib_emit_p99_us, "us");
    r.add("span.fib_p50_us", t.span_fib_p50_us, "us");
    r.add("span.fib_p99_us", t.span_fib_p99_us, "us");
    r.add("span.residual_share", t.span_residual_share, "share");
    r.add("thread.bgp_busy", t.thread_bgp_busy, "share");
    r.add("thread.rib_busy", t.thread_rib_busy, "share");
    r.add("thread.fea_busy", t.thread_fea_busy, "share");
    r.add("thread.driver_busy", t.thread_driver_busy, "share");
    r.add("ospf.spf_full_per_flap", t.ospf_spf_full_per_flap, "count");
    r.add("ospf.spf_incr_per_flap", t.ospf_spf_incr_per_flap, "count");
    r.add("ospf.floods_per_flap", t.ospf_floods_per_flap, "count");
    r.add("ospf.spf_full_us", t.ospf_spf_full_us, "us");
    r.add("gen.late_p99_ms", t.gen_late_p99_ms, "ms");
    r.add("trace.overhead_share", t.trace_overhead_share, "share");
}

void print_result(const Result& r) {
    std::string out = "{\"correct\": ";
    out += r.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : r.metrics) {
        char num[64];
        // JSON has no NaN/Inf; a non-finite reading is reported as null
        // so the self-test (and any consumer) sees it as missing.
        if (std::isfinite(m.value))
            std::snprintf(num, sizeof num, "%.17g", m.value);
        else
            std::snprintf(num, sizeof num, "null");
        if (!first) out += ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
