/**
 * @file
 * Golden-file regression tests for the figure CSV outputs.
 *
 * The tolerance-sweep CSVs behind the headline figures (paper
 * Figs. 5 and 6: objective reduction vs. tolerance, per policy
 * family) are pinned against committed goldens, produced from a
 * deterministic reduced-scale trace so the whole pipeline — split,
 * bootstrap rule generation, held-out simulation, CSV formatting —
 * runs in test time. Numeric columns compare within a small
 * tolerance so benign floating-point drift does not fail the build;
 * structural drift (columns, rows, chosen ensembles) does.
 *
 * Regenerate the goldens after an intentional behavior change with
 *   TT_UPDATE_GOLDEN=1 ./golden_test
 * and commit the result.
 *
 * The determinism suite below the golden checks pins the parallel
 * execution contract: rule generation and the full sweeps must be
 * **byte-identical** at 1, 2, and 8 threads (exec/parallel.hh keys
 * all randomness by task index, so scheduling cannot leak into the
 * output). These comparisons are exact — no numeric tolerance.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/measurement.hh"
#include "core/rule_generator.hh"
#include "exec/parallel.hh"
#include "sweep.hh"

namespace co = toltiers::core;
namespace sv = toltiers::serving;
namespace tc = toltiers::common;
namespace bn = toltiers::bench;

namespace {

/**
 * Deterministic three-version trace: a cheap error-prone version, a
 * mid tier, and an accurate reference, with confidence correlated
 * to correctness so escalation policies have signal to work with.
 */
co::MeasurementSet
goldenTrace()
{
    tc::Pcg32 rng(20260805);
    co::MeasurementSet ms({"fast", "mid", "accurate"});
    for (std::size_t i = 0; i < 600; ++i) {
        co::Measurement fast;
        fast.error =
            rng.bernoulli(0.35) ? rng.uniform(0.2, 1.0) : 0.0;
        fast.latency = rng.uniform(0.004, 0.015);
        fast.cost = fast.latency * 2e-4;
        fast.confidence = fast.error > 0.0 ? rng.uniform(0.0, 0.6)
                                           : rng.uniform(0.4, 1.0);
        co::Measurement mid;
        mid.error =
            rng.bernoulli(0.15) ? rng.uniform(0.2, 1.0) : 0.0;
        mid.latency = rng.uniform(0.015, 0.04);
        mid.cost = mid.latency * 3e-4;
        mid.confidence = mid.error > 0.0 ? rng.uniform(0.1, 0.7)
                                         : rng.uniform(0.5, 1.0);
        co::Measurement acc;
        acc.error =
            rng.bernoulli(0.04) ? rng.uniform(0.2, 1.0) : 0.0;
        acc.latency = rng.uniform(0.05, 0.12);
        acc.cost = acc.latency * 8e-4;
        acc.confidence = rng.uniform(0.8, 1.0);
        ms.addRequest({fast, mid, acc});
    }
    return ms;
}

std::vector<std::vector<std::string>>
readCsv(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::vector<std::string>> rows;
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> cells;
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, ','))
            cells.push_back(cell);
        rows.push_back(cells);
    }
    return rows;
}

bool
isNumeric(const std::string &cell)
{
    if (cell.empty())
        return false;
    char *end = nullptr;
    std::strtod(cell.c_str(), &end);
    return end == cell.c_str() + cell.size();
}

void
checkAgainstGolden(const bn::SweepResult &result,
                   const std::string &golden_name,
                   const std::string &tmp_name)
{
    const std::string golden_path =
        std::string(TT_GOLDEN_DIR) + "/" + golden_name;
    if (std::getenv("TT_UPDATE_GOLDEN") != nullptr) {
        std::filesystem::create_directories(TT_GOLDEN_DIR);
        bn::writeSweepCsv(result, golden_path);
        GTEST_SKIP() << "regenerated " << golden_path;
    }

    bn::writeSweepCsv(result, tmp_name);
    auto expected = readCsv(golden_path);
    auto actual = readCsv(tmp_name);
    ASSERT_FALSE(expected.empty())
        << "missing golden " << golden_path
        << " — regenerate with TT_UPDATE_GOLDEN=1";
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
        ASSERT_EQ(actual[r].size(), expected[r].size())
            << "row " << r;
        for (std::size_t c = 0; c < expected[r].size(); ++c) {
            const auto &want = expected[r][c];
            const auto &got = actual[r][c];
            if (isNumeric(want) && isNumeric(got)) {
                EXPECT_NEAR(std::strtod(got.c_str(), nullptr),
                            std::strtod(want.c_str(), nullptr),
                            1e-3)
                    << "row " << r << " col " << c;
            } else {
                EXPECT_EQ(got, want)
                    << "row " << r << " col " << c;
            }
        }
    }
}

} // namespace

TEST(Golden, ResponseTimeSweepCsvMatchesGolden)
{
    auto result = bn::runToleranceSweep(
        goldenTrace(), sv::Objective::ResponseTime,
        co::DegradationMode::AbsolutePoints, 0.10, 0.01);
    checkAgainstGolden(result, "fig5_response_time.csv",
                       "golden_tmp_fig5.csv");
}

TEST(Golden, CostSweepCsvMatchesGolden)
{
    auto result = bn::runToleranceSweep(
        goldenTrace(), sv::Objective::Cost,
        co::DegradationMode::AbsolutePoints, 0.10, 0.01);
    checkAgainstGolden(result, "fig6_cost.csv",
                       "golden_tmp_fig6.csv");
}

// ------------------------------------------------ determinism suite

namespace {

/** Full-precision dump of a rule table; any bit of drift differs. */
std::string
dumpRules(const std::vector<co::RoutingRule> &rules,
          const co::MeasurementSet &trace)
{
    std::ostringstream out;
    out.precision(17);
    for (const auto &r : rules) {
        out << r.tolerance << '|' << r.cfg.describe(trace) << '|'
            << r.worstErrorDegradation << '|' << r.expectedLatency
            << '|' << r.expectedCost << '|' << r.worstLatency << '|'
            << r.worstCost << '\n';
    }
    return out.str();
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

TEST(Determinism, RuleTableIsByteIdenticalAcrossThreadCounts)
{
    auto trace = goldenTrace();
    auto generate = [&] {
        co::RuleGenConfig rg;
        rg.referenceVersion = trace.versionCount() - 1;
        rg.mode = co::DegradationMode::AbsolutePoints;
        co::RoutingRuleGenerator gen(
            trace, co::enumerateCandidates(trace.versionCount()),
            rg);
        return dumpRules(gen.generate(co::toleranceGrid(0.10, 0.01),
                                      sv::Objective::ResponseTime),
                         trace);
    };

    toltiers::exec::setGlobalThreadCount(1);
    const std::string serial = generate();
    ASSERT_FALSE(serial.empty());
    for (std::size_t threads : {2u, 8u}) {
        toltiers::exec::setGlobalThreadCount(threads);
        EXPECT_EQ(generate(), serial)
            << "rule table drifted at " << threads << " threads";
    }
    toltiers::exec::setGlobalThreadCount(
        toltiers::exec::configuredThreadCount());
}

TEST(Determinism, SweepCsvIsByteIdenticalAcrossThreadCounts)
{
    auto trace = goldenTrace();
    auto sweepBytes = [&](const std::string &tmp) {
        auto result = bn::runToleranceSweep(
            trace, sv::Objective::ResponseTime,
            co::DegradationMode::AbsolutePoints, 0.10, 0.01);
        bn::writeSweepCsv(result, tmp);
        return readFileBytes(tmp);
    };

    toltiers::exec::setGlobalThreadCount(1);
    const std::string serial = sweepBytes("det_sweep_t1.csv");
    ASSERT_FALSE(serial.empty());
    for (std::size_t threads : {2u, 8u}) {
        toltiers::exec::setGlobalThreadCount(threads);
        EXPECT_EQ(sweepBytes("det_sweep_t" +
                             std::to_string(threads) + ".csv"),
                  serial)
            << "sweep CSV drifted at " << threads << " threads";
    }
    toltiers::exec::setGlobalThreadCount(
        toltiers::exec::configuredThreadCount());
}
