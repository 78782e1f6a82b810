// xrp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--scale <x>] [--inject-fib-delete]
//
// Runs one workload and prints, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics. Untraced runs report
// the end-to-end metrics; traced runs report the per-layer table.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: xrp_perfbench --workload "
                 "full_table|download_1m|churn|igp_flap --seed N --seconds S "
                 "--trace 0|1 [--scale X] [--inject-fib-delete]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--inject-fib-delete") {
            o.inject_fib_delete = true;
            continue;
        }
        if (v == nullptr) return usage();
        ++i;
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--trace")
            o.trace = std::atoi(v) != 0;
        else if (a == "--scale")
            o.scale = std::atof(v);
        else
            return usage();
    }
    if (o.seconds <= 0 || o.scale <= 0) return usage();

    Result r;
    if (o.workload == "full_table")
        r = run_full_table(o);
    else if (o.workload == "download_1m")
        r = run_download(o);
    else if (o.workload == "churn")
        r = run_churn(o);
    else if (o.workload == "igp_flap")
        r = run_igp_flap(o);
    else
        return usage();
    print_result(r);
    return 0;
}
