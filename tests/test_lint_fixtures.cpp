// Self-tests for the orc-lint static checker (tools/orc_lint/).
//
// Each rule R1–R13 must fire on its crafted bad fixture tree and stay silent
// on the good tree; the suppression grammar must reject a bare allow() and
// honor a justified one. The last test is the enforcement gate itself: the
// real src/ tree must lint clean. Fixture paths and the linter binary
// location are injected by the build (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace {

struct LintResult {
    int exit_code = -1;
    std::string output;
};

LintResult run_lint(const std::string& root) {
    const std::string cmd = std::string(ORC_LINT_BIN) + " --root " + root + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << "failed to spawn: " << cmd;
    LintResult result;
    if (pipe == nullptr) return result;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
    const int status = pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

std::string fixture(const char* name) {
    return std::string(ORC_LINT_FIXTURES) + "/" + name;
}

/// Number of diagnostics tagged with `rule` ("R1"..."R5", "suppression").
int count_rule(const std::string& output, const std::string& rule) {
    const std::string tag = ": " + rule + ": ";
    int n = 0;
    for (std::size_t pos = 0; (pos = output.find(tag, pos)) != std::string::npos;
         pos += tag.size()) {
        ++n;
    }
    return n;
}

TEST(OrcLintFixtures, R1FiresOnImplicitMemoryOrder) {
    const LintResult r = run_lint(fixture("bad_r1"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // load, store, fetch_add, compare_exchange_strong, exchange: all five.
    EXPECT_EQ(count_rule(r.output, "R1"), 5) << r.output;
}

TEST(OrcLintFixtures, R2FiresOnRawAllocation) {
    const LintResult r = run_lint(fixture("bad_r2"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // new, delete, malloc, free.
    EXPECT_EQ(count_rule(r.output, "R2"), 4) << r.output;
}

TEST(OrcLintFixtures, R3FiresOnMarkedDereference) {
    const LintResult r = run_lint(fixture("bad_r3"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // Direct get_marked(...)->  and the escaped-variable form.
    EXPECT_EQ(count_rule(r.output, "R3"), 2) << r.output;
}

TEST(OrcLintFixtures, R4FiresOnUnpaddedPerThreadArray) {
    const LintResult r = run_lint(fixture("bad_r4"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(count_rule(r.output, "R4"), 1) << r.output;
}

TEST(OrcLintFixtures, R5FiresOnProtectionEscape) {
    const LintResult r = run_lint(fixture("bad_r5"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // .get()->, load_unsafe()->, and the escaped raw variable.
    EXPECT_EQ(count_rule(r.output, "R5"), 3) << r.output;
}

TEST(OrcLintFixtures, R6FiresOnEngineHeapAllocation) {
    const LintResult r = run_lint(fixture("bad_r6"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // The raw new and the malloc call; the justified pool suppression and
    // the reclamation delete must both stay silent.
    EXPECT_EQ(count_rule(r.output, "R6"), 2) << r.output;
}

TEST(OrcLintFixtures, R8FiresOnAdHocAtomicCounters) {
    const LintResult r = run_lint(fixture("bad_r8"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // retired_count and stat_scans; the justified suppression and the
    // non-counter atomics (reservation, watermark, era) must stay silent.
    EXPECT_EQ(count_rule(r.output, "R8"), 2) << r.output;
}

TEST(OrcLintFixtures, R9FiresOnRawFencesAndSeqCstSlotPublishes) {
    const LintResult r = run_lint(fixture("bad_r9"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // The membarrier token, the syscall token, the seq_cst hp store, and the
    // seq_cst guard exchange; the handover drain (not a protection slot) and
    // the release publish must stay silent.
    EXPECT_EQ(count_rule(r.output, "R9"), 4) << r.output;
}

TEST(OrcLintFixtures, R10FiresOnRawFreeOfOrcBase) {
    const LintResult r = run_lint(fixture("bad_r10"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // delete of a typed variable, delete through an orc_base cast, std::free,
    // and ::operator delete; the untracked Node* delete must stay silent.
    EXPECT_EQ(count_rule(r.output, "R10"), 4) << r.output;
}

TEST(OrcLintFixtures, R11FiresOnRawThreadInEngine) {
    const LintResult r = run_lint(fixture("bad_r11"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // The member declaration and the spawn site; std::this_thread and the
    // justified suppression stay silent. No engine file is exempt: the real
    // tree spawning no thread is covered by RepositoryTreeIsClean.
    EXPECT_EQ(count_rule(r.output, "R11"), 2) << r.output;
}

TEST(OrcLintFixtures, R12FiresOnSubstrateForksInSchemeFiles) {
    const LintResult r = run_lint(fixture("bad_r12"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // The raw slot array, the ad-hoc retire vector, and the scheme-owned
    // SchemeMetrics; the scan scratch vector, the plain loop bound and the
    // justified suppression stay silent. (scheme_base.hpp itself is exempt —
    // the substrate being clean is covered by RepositoryTreeIsClean.)
    EXPECT_EQ(count_rule(r.output, "R12"), 3) << r.output;
}

TEST(OrcLintFixtures, R13FiresOnRawTimingInEngine) {
    const LintResult r = run_lint(fixture("bad_r13"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // The rdtsc intrinsic, the clock_gettime call, and the
    // steady_clock::now read; the time_point type mention and the justified
    // suppression stay silent. (telemetry.hpp lives in common/, outside the
    // rule's scope; orc_metrics.hpp's exemption is covered by
    // RepositoryTreeIsClean.)
    EXPECT_EQ(count_rule(r.output, "R13"), 3) << r.output;
}

TEST(OrcLintFixtures, BareSuppressionIsAnErrorAndDoesNotSuppress) {
    const LintResult r = run_lint(fixture("bad_suppression"));
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(count_rule(r.output, "suppression"), 1) << r.output;
    // The malformed allow must not swallow the underlying R1 diagnostic.
    EXPECT_EQ(count_rule(r.output, "R1"), 1) << r.output;
}

TEST(OrcLintFixtures, GoodTreeIsClean) {
    // The good tree exercises explicit orders, CachelinePadded and
    // alignas-declared per-thread arrays, get_unmarked-before-deref,
    // orc_ptr-mediated dereference, and a *justified* suppression — none of
    // which may produce a diagnostic.
    const LintResult r = run_lint(fixture("good"));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(OrcLintFixtures, RepositoryTreeIsClean) {
    const LintResult r = run_lint(ORC_LINT_SRC_DIR);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(OrcLintFixtures, ClientTreesAreClean) {
    // R10 (and the other path-independent rules) applies to every tree
    // outside src/core/: tests, benches, and examples must never free an
    // orc_base object behind the domain's back.
    for (const char* dir : {ORC_LINT_TESTS_DIR, ORC_LINT_BENCH_DIR, ORC_LINT_EXAMPLES_DIR}) {
        const LintResult r = run_lint(dir);
        EXPECT_EQ(r.exit_code, 0) << dir << ":\n" << r.output;
        EXPECT_TRUE(r.output.empty()) << dir << ":\n" << r.output;
    }
}

}  // namespace
