/**
 * @file
 * rpx_perfbench: runs one benchmark workload for a fixed wall-clock
 * budget and prints its result as one JSON line on stdout.
 *
 *   rpx_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--trace-out trace.json]
 *
 * With --trace 0 it reports end-to-end metrics; with --trace 1 it makes
 * a traced run and reports per-layer metrics instead. perfbench/run.py
 * builds this program, checks its outputs against the recorded
 * references, and prints the final record.
 */

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

int
usage()
{
    std::cerr << "usage: rpx_perfbench --workload hd_foveated|"
                 "slam_rhythmic|fleet_many_small "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            opt.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--trace-out")
            opt.trace_out = value;
        else
            return usage();
    }
    if (argc % 2 != 1 || !(opt.seconds > 0.0))
        return usage();

    perfbench::Result result;
    try {
        if (opt.workload == "hd_foveated")
            perfbench::runHdFoveated(opt, result);
        else if (opt.workload == "slam_rhythmic")
            perfbench::runSlamRhythmic(opt, result);
        else if (opt.workload == "fleet_many_small")
            perfbench::runFleetManySmall(opt, result);
        else
            return usage();
    } catch (const std::exception &e) {
        result.problem(std::string("workload aborted: ") + e.what());
    }
    std::cout << result.toJson() << std::endl;
    return 0;
}
