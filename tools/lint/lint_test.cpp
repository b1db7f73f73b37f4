// wiera-lint fixture suite: exact finding counts per check over the seeded
// fixture tree, suppression semantics, and the baseline round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "lint.h"

namespace wiera::lint {
namespace {

Options fixture_options() {
  Options options;
  options.root = WIERA_LINT_FIXTURE_DIR;
  options.paths = {"src"};
  return options;
}

std::map<std::string, int> count_by_check(const RunResult& result) {
  std::map<std::string, int> counts;
  for (const Finding& f : result.findings) counts[f.check]++;
  return counts;
}

TEST(LintFixtures, ExactFindingCountsPerCheck) {
  const RunResult result = run_lint(fixture_options());
  const auto counts = count_by_check(result);

  EXPECT_EQ(counts.at("determinism-source"), 5);
  EXPECT_EQ(counts.at("unordered-iteration"), 2);
  EXPECT_EQ(counts.at("status-discipline"), 3);
  EXPECT_EQ(counts.at("await-hazard"), 3);
  EXPECT_EQ(counts.at("span-pairing"), 3);
  EXPECT_EQ(counts.at("layering"), 2);
  EXPECT_EQ(counts.at("bad-suppression"), 2);
  EXPECT_EQ(result.findings.size(), 20u);
  EXPECT_EQ(result.files_scanned, 19);
}

TEST(LintFixtures, NegativeFixturesStaySilent) {
  const RunResult result = run_lint(fixture_options());
  for (const Finding& f : result.findings) {
    EXPECT_EQ(f.file.find("_ok.cpp"), std::string::npos)
        << "negative fixture fired: " << render(f, false);
  }
}

TEST(LintFixtures, ReasonedSuppressionsAreHonored) {
  const RunResult result = run_lint(fixture_options());
  // One reasoned allow(...) per check except bad-suppression: determinism,
  // unordered, status, await, span, layering.
  EXPECT_EQ(result.suppressed, 6);
  for (const Finding& f : result.findings) {
    EXPECT_EQ(f.file.find("_suppressed.cpp"), std::string::npos)
        << "suppressed fixture leaked a finding: " << render(f, false);
  }
}

TEST(LintFixtures, AllowWithoutReasonIsBadSuppressionAndDoesNotSuppress) {
  const RunResult result = run_lint(fixture_options());
  bool saw_no_reason = false, saw_unknown_check = false,
       status_still_fires = false;
  for (const Finding& f : result.findings) {
    if (f.file != "src/rpc/bad_suppression.cpp") continue;
    if (f.check == "bad-suppression") {
      if (f.message.find("no reason") != std::string::npos) {
        saw_no_reason = true;
      }
      if (f.message.find("unknown check") != std::string::npos) {
        saw_unknown_check = true;
      }
    }
    if (f.check == "status-discipline") status_still_fires = true;
  }
  EXPECT_TRUE(saw_no_reason);
  EXPECT_TRUE(saw_unknown_check);
  EXPECT_TRUE(status_still_fires)
      << "a reason-less allow() must not suppress its line";
}

TEST(LintFixtures, OnlyFilterRestrictsChecks) {
  Options options = fixture_options();
  options.only = {"layering"};
  const RunResult result = run_lint(options);
  for (const Finding& f : result.findings) {
    // bad-suppression findings come from parsing, not from a check, so
    // they survive any --only filter.
    EXPECT_TRUE(f.check == "layering" || f.check == "bad-suppression")
        << render(f, false);
  }
  EXPECT_EQ(count_by_check(result).at("layering"), 2);
}

TEST(LintFixtures, BaselineRoundTripSilencesEverything) {
  const std::string baseline =
      testing::TempDir() + "/wiera_lint_fixture_baseline.txt";

  Options write_options = fixture_options();
  write_options.write_baseline_path = baseline;
  const RunResult first = run_lint(write_options);
  ASSERT_EQ(first.findings.size(), 20u);

  Options read_options = fixture_options();
  read_options.baseline_path = baseline;
  const RunResult second = run_lint(read_options);
  EXPECT_EQ(second.findings.size(), 0u);
  EXPECT_EQ(second.baselined, 20);

  std::remove(baseline.c_str());
}

TEST(LintFixtures, FindingsAreSortedAndCarryHints) {
  const RunResult result = run_lint(fixture_options());
  for (size_t i = 1; i < result.findings.size(); ++i) {
    EXPECT_FALSE(result.findings[i] < result.findings[i - 1]);
  }
  for (const Finding& f : result.findings) {
    EXPECT_FALSE(f.hint.empty()) << render(f, false);
    const std::string rendered = render(f, true);
    EXPECT_NE(rendered.find("fix-hint:"), std::string::npos);
  }
}

TEST(LintRegistry, SixChecksRegistered) {
  const auto checks = make_all_checks();
  ASSERT_EQ(checks.size(), 6u);
  std::set<std::string> names;
  for (const auto& check : checks) {
    EXPECT_FALSE(check->description().empty());
    names.insert(check->name());
  }
  const std::set<std::string> expected = {
      "determinism-source", "unordered-iteration", "status-discipline",
      "await-hazard",       "span-pairing",        "layering"};
  EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace wiera::lint
