// sbqlint analyzer-library tests: every rule gets a violating snippet, a
// clean variant, and a pragma-suppressed variant, fed through
// analyze_source under synthetic repo paths (rule scopes key off the
// path). The final test runs the real repository through analyze_tree and
// asserts it lints clean — the machine-checked form of the acceptance
// criterion "all pre-existing violations fixed or explicitly pragma'd".
#include "sbqlint/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sbq::lint {
namespace {

std::vector<Finding> lint(const std::string& path, const std::string& src) {
  return analyze_source(path, src, default_config());
}

/// All findings for one rule (ignores the others).
std::vector<Finding> lint_rule(const std::string& path, const std::string& src,
                               const std::string& rule) {
  std::vector<Finding> out;
  for (Finding& f : lint(path, src)) {
    if (f.rule == rule) out.push_back(std::move(f));
  }
  return out;
}

// ---------------------------------------------------------------------- //
// layering
// ---------------------------------------------------------------------- //

TEST(LintLayering, UpwardIncludeIsFlagged) {
  const auto findings = lint_rule("src/pbio/format.cpp",
                                  "#include \"http/client.h\"\n", "layering");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/pbio/format.cpp");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("http/client.h"), std::string::npos);
}

TEST(LintLayering, DagEdgesAndSelfIncludesAreClean) {
  EXPECT_TRUE(lint("src/pbio/format.cpp",
                   "#include \"common/bytes.h\"\n"
                   "#include \"pbio/format.h\"\n")
                  .empty());
  EXPECT_TRUE(lint("src/core/client.cpp",
                   "#include \"qos/manager.h\"\n"
                   "#include \"http/client.h\"\n")
                  .empty());
}

TEST(LintLayering, QosMayNotIncludeCore) {
  // The exact leak this PR repaired: qos/monitors.h included core/stats.h.
  const auto findings = lint_rule("src/qos/monitors.h",
                                  "#include \"core/stats.h\"\n", "layering");
  ASSERT_EQ(findings.size(), 1u);
}

TEST(LintLayering, SystemHeadersAndNonSubsystemIncludesIgnored) {
  EXPECT_TRUE(lint("src/pbio/format.cpp",
                   "#include <chrono_like_header>\n"
                   "#include \"generated_stubs.h\"\n")
                  .empty());
}

TEST(LintLayering, ToolsAndTestsComposeFreely) {
  EXPECT_TRUE(lint("tools/soapcall.cpp", "#include \"core/client.h\"\n").empty());
  EXPECT_TRUE(lint("tests/test_core.cpp", "#include \"core/client.h\"\n").empty());
}

TEST(LintLayering, UnknownSubsystemIsFlagged) {
  const auto findings =
      lint_rule("src/newthing/x.cpp", "int x;\n", "layering");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("unknown subsystem"), std::string::npos);
}

// ---------------------------------------------------------------------- //
// no-raw-throw
// ---------------------------------------------------------------------- //

TEST(LintThrow, RawStdThrowIsFlagged) {
  const auto findings = lint_rule(
      "src/xml/writer.cpp", "void f() { throw std::runtime_error(\"x\"); }\n",
      "no-raw-throw");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("std::runtime_error"), std::string::npos);
}

TEST(LintThrow, SbqErrorConstructionsAreClean) {
  EXPECT_TRUE(lint_rule("src/xml/writer.cpp",
                        "void f() {\n"
                        "  throw ParseError(\"a\");\n"
                        "  throw sbq::CodecError(\"b\");\n"
                        "  throw xml::XmlError(\"c\", 1, 2);\n"
                        "  throw OverloadError{\"d\", 5};\n"
                        "}\n",
                        "no-raw-throw")
                  .empty());
}

TEST(LintThrow, BareRethrowIsClean) {
  EXPECT_TRUE(lint_rule("src/xml/writer.cpp",
                        "void f() { try { g(); } catch (const Error&) { throw; } }\n",
                        "no-raw-throw")
                  .empty());
}

TEST(LintThrow, ThrowingAVariableIsFlagged) {
  EXPECT_EQ(lint_rule("src/xml/writer.cpp", "void f(Error e) { throw e; }\n",
                      "no-raw-throw")
                .size(),
            1u);
}

TEST(LintThrow, TestsMayThrowAnything) {
  EXPECT_TRUE(lint_rule("tests/test_edge.cpp",
                        "void f() { throw std::runtime_error(\"fixture\"); }\n",
                        "no-raw-throw")
                  .empty());
}

TEST(LintThrow, PragmaSuppresses) {
  EXPECT_TRUE(lint_rule("src/xml/writer.cpp",
                        "// sbqlint:allow(no-raw-throw): interop shim\n"
                        "void f() { throw std::runtime_error(\"x\"); }\n",
                        "no-raw-throw")
                  .empty());
  EXPECT_TRUE(lint_rule("src/xml/writer.cpp",
                        "void f() { throw std::runtime_error(\"x\"); }"
                        "  // sbqlint:allow(no-raw-throw): interop shim\n",
                        "no-raw-throw")
                  .empty());
}

// ---------------------------------------------------------------------- //
// no-swallow
// ---------------------------------------------------------------------- //

TEST(LintSwallow, SilentCatchAllIsFlagged) {
  const auto findings = lint_rule(
      "src/http/server.cpp", "void f() { try { g(); } catch (...) {} }\n",
      "no-swallow");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintSwallow, RethrowAndConvertAreClean) {
  EXPECT_TRUE(lint_rule("src/http/server.cpp",
                        "void f() { try { g(); } catch (...) { throw; } }\n",
                        "no-swallow")
                  .empty());
  EXPECT_TRUE(lint_rule("src/http/server.cpp",
                        "void f() {\n"
                        "  try { g(); } catch (...) { throw Error(\"wrapped\"); }\n"
                        "}\n",
                        "no-swallow")
                  .empty());
}

TEST(LintSwallow, TypedCatchesAreNotCovered) {
  EXPECT_TRUE(lint_rule("src/http/server.cpp",
                        "void f() { try { g(); } catch (const Error&) {} }\n",
                        "no-swallow")
                  .empty());
}

TEST(LintSwallow, PragmaSuppresses) {
  EXPECT_TRUE(lint_rule("src/http/server.cpp",
                        "void f() {\n"
                        "  try { g(); }\n"
                        "  // sbqlint:allow(no-swallow): converted to a 500\n"
                        "  catch (...) { respond_500(); }\n"
                        "}\n",
                        "no-swallow")
                  .empty());
}

// ---------------------------------------------------------------------- //
// cast-confinement
// ---------------------------------------------------------------------- //

TEST(LintCast, ReinterpretCastOutsideAllowlistIsFlagged) {
  const auto findings = lint_rule(
      "src/qos/manager.cpp",
      "void f(const char* p) { auto b = reinterpret_cast<const int*>(p); }\n",
      "cast-confinement");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("reinterpret_cast"), std::string::npos);
}

TEST(LintCast, MemcpyOutsideAllowlistIsFlagged) {
  EXPECT_EQ(lint_rule("src/soap/codec.cpp",
                      "void f(void* d, const void* s) { memcpy(d, s, 4); }\n",
                      "cast-confinement")
                .size(),
            1u);
  EXPECT_EQ(lint_rule("src/soap/codec.cpp",
                      "void f(void* d, const void* s) { std::memcpy(d, s, 4); }\n",
                      "cast-confinement")
                .size(),
            1u);
}

TEST(LintCast, AllowlistedCodecFilesMayCast) {
  EXPECT_TRUE(lint_rule("src/common/bytes.h",
                        "auto f(const char* p) { return reinterpret_cast<const "
                        "unsigned char*>(p); }\n",
                        "cast-confinement")
                  .empty());
  EXPECT_TRUE(lint_rule("src/pbio/encode.cpp",
                        "void f(void* d, const void* s) { std::memcpy(d, s, 8); }\n",
                        "cast-confinement")
                  .empty());
}

TEST(LintCast, PragmaSuppresses) {
  EXPECT_TRUE(lint_rule("src/qos/manager.cpp",
                        "// sbqlint:allow(cast-confinement): FFI boundary\n"
                        "void f(void* d, const void* s) { memcpy(d, s, 4); }\n",
                        "cast-confinement")
                  .empty());
}

// ---------------------------------------------------------------------- //
// clock-discipline
// ---------------------------------------------------------------------- //

TEST(LintClock, SystemClockIsFlaggedEverywhere) {
  for (const char* path :
       {"src/net/link.cpp", "tools/soapcall.cpp", "tests/test_qos.cpp",
        "bench/bench_fig8_imaging.cpp"}) {
    EXPECT_EQ(lint_rule(path,
                        "auto t = std::chrono::system_clock::now();\n",
                        "clock-discipline")
                  .size(),
              1u)
        << path;
  }
}

TEST(LintClock, TimeCallAndGettimeofdayAreFlagged) {
  EXPECT_EQ(lint_rule("src/qos/rtt.cpp", "auto t = time(nullptr);\n",
                      "clock-discipline")
                .size(),
            1u);
  EXPECT_EQ(lint_rule("src/qos/rtt.cpp",
                      "void f(timeval* tv) { gettimeofday(tv, nullptr); }\n",
                      "clock-discipline")
                .size(),
            1u);
}

TEST(LintClock, CallPositionOnlyForCommonNames) {
  // `time` and `clock` are everyday identifiers; only calls are flagged.
  EXPECT_TRUE(lint_rule("src/qos/rtt.cpp",
                        "struct S { double time; };\n"
                        "void f(S s, double clock) { s.time = clock; }\n",
                        "clock-discipline")
                  .empty());
}

TEST(LintClock, ClockHeaderIsExempt) {
  EXPECT_TRUE(lint_rule("src/common/clock.h",
                        "auto n = std::chrono::steady_clock::now();\n",
                        "clock-discipline")
                  .empty());
}

TEST(LintClock, ChronoDurationsAreFine) {
  EXPECT_TRUE(lint_rule("src/net/pipe.cpp",
                        "void f() { wait_for(std::chrono::microseconds(5)); }\n",
                        "clock-discipline")
                  .empty());
}

// ---------------------------------------------------------------------- //
// sleep-discipline
// ---------------------------------------------------------------------- //

TEST(LintSleep, DirectSleepInProductCodeIsFlagged) {
  for (const char* path : {"src/core/resilience.cpp", "tools/soapcall.cpp"}) {
    EXPECT_EQ(
        lint_rule(path,
                  "void f() { std::this_thread::sleep_for(delay); }\n",
                  "sleep-discipline")
            .size(),
        1u)
        << path;
    EXPECT_EQ(lint_rule(path, "void f() { usleep(50); }\n",
                        "sleep-discipline")
                  .size(),
              1u)
        << path;
  }
}

TEST(LintSleep, TestsAndBenchMaySleep) {
  for (const char* path :
       {"tests/test_resilience.cpp", "bench/bench_overload.cpp"}) {
    EXPECT_TRUE(
        lint_rule(path,
                  "void f() { std::this_thread::sleep_for(delay); }\n",
                  "sleep-discipline")
            .empty())
        << path;
  }
}

TEST(LintSleep, DelayPrimitivesAreAllowlisted) {
  EXPECT_TRUE(
      lint_rule("src/core/client.cpp",
                "void f() { std::this_thread::sleep_for(delay); }\n",
                "sleep-discipline")
          .empty());
}

TEST(LintSleep, CallPositionOnly) {
  // `sleep` as a plain name (a field, a parameter) is not a violation.
  EXPECT_TRUE(lint_rule("src/core/resilience.cpp",
                        "struct S { int sleep; };\n"
                        "int f(S s) { return s.sleep; }\n",
                        "sleep-discipline")
                  .empty());
}

TEST(LintSleep, PragmaSuppresses) {
  EXPECT_TRUE(
      lint_rule("src/core/resilience.cpp",
                "// sbqlint:allow(sleep-discipline)\n"
                "void f() { std::this_thread::sleep_for(delay); }\n",
                "sleep-discipline")
          .empty());
}

// ---------------------------------------------------------------------- //
// Tokenizer-awareness: literals, comments, raw strings, pragma parsing.
// ---------------------------------------------------------------------- //

TEST(LintTokenizer, StringsAndCommentsNeverFire) {
  EXPECT_TRUE(lint("src/qos/manager.cpp",
                   "// memcpy reinterpret_cast system_clock throw std::x(\n"
                   "/* gettimeofday(now) catch (...) { } */\n"
                   "const char* s = \"memcpy(a, b, 4) system_clock\";\n"
                   "const char* r = R\"(reinterpret_cast<int*>(p) time( )\";\n")
                  .empty());
}

TEST(LintTokenizer, RawStringDelimitersAreHonored) {
  // The banned token sits after a fake `)"` inside the delimited raw
  // string; a naive scanner would resume tokenizing too early.
  EXPECT_TRUE(lint("src/qos/manager.cpp",
                   "const char* r = R\"sbq( )\" memcpy(a, b, 4) )sbq\";\n")
                  .empty());
}

TEST(LintTokenizer, LineNumbersSurviveMultilineConstructs) {
  const auto findings = lint_rule("src/qos/manager.cpp",
                                  "/* comment\n"
                                  "   spanning\n"
                                  "   lines */\n"
                                  "const char* s = \"str\";\n"
                                  "void f(void* d) { memcpy(d, d, 1); }\n",
                                  "cast-confinement");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5);
}

TEST(LintTokenizer, PragmaWithMultipleRules) {
  EXPECT_TRUE(lint("src/qos/manager.cpp",
                   "// sbqlint:allow(cast-confinement, clock-discipline): port shim\n"
                   "void f(void* d) { memcpy(d, d, 1); gettimeofday(0, 0); }\n")
                  .empty());
}

TEST(LintTokenizer, PragmaForOneRuleDoesNotSuppressAnother) {
  const auto findings = lint("src/qos/manager.cpp",
                             "// sbqlint:allow(cast-confinement): shim\n"
                             "void f(void* d) { memcpy(d, d, 1); gettimeofday(0, 0); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "clock-discipline");
}

// ---------------------------------------------------------------------- //
// Output format and metadata.
// ---------------------------------------------------------------------- //

TEST(LintOutput, FormatIsFileLineRuleMessage) {
  const Finding finding{"src/a/b.cpp", 42, "layering", "bad include"};
  EXPECT_EQ(format_finding(finding), "src/a/b.cpp:42: layering: bad include");
}

TEST(LintOutput, TwelveRulesAreRegistered) {
  const auto infos = rules();
  ASSERT_EQ(infos.size(), 12u);
  EXPECT_EQ(infos[0].name, "layering");
  EXPECT_EQ(infos[1].name, "no-raw-throw");
  EXPECT_EQ(infos[2].name, "no-swallow");
  EXPECT_EQ(infos[3].name, "cast-confinement");
  EXPECT_EQ(infos[4].name, "clock-discipline");
  EXPECT_EQ(infos[5].name, "sleep-discipline");
  EXPECT_EQ(infos[6].name, "event-loop-blocking");
  EXPECT_EQ(infos[7].name, "lock-discipline");
  EXPECT_EQ(infos[8].name, "hot-path-allocation");
  EXPECT_EQ(infos[9].name, "guarded-field");
  EXPECT_EQ(infos[10].name, "thread-affinity");
  EXPECT_EQ(infos[11].name, "bad-pragma");
}

// ---------------------------------------------------------------------- //
// Graph rules: a reduced config (custom roots, its own blocking set, no
// layering pruning) probes each rule's mechanics in isolation.
// ---------------------------------------------------------------------- //

Config graph_config() {
  Config config;
  config.event_roots = {"loop_root"};
  config.blocking_calls = {"block_op", "wait"};
  config.blocking_exempt_receivers = {"poller"};
  config.hot_path_roots = {"hot_root"};
  config.hot_path_allowlist = {"staging_ok"};
  config.hot_allocation_calls = {"to_string"};
  config.affinity_roots = {{"alpha", {"alpha_root"}}, {"beta", {"beta_root"}}};
  return config;
}

std::vector<Finding> lint_graph(const std::string& src,
                                const std::string& rule) {
  const std::vector<SourceFile> files{{"src/common/t.cpp", src}};
  std::vector<Finding> out;
  for (Finding& f : analyze_program(files, graph_config())) {
    if (f.rule == rule) out.push_back(std::move(f));
  }
  return out;
}

// ----------------------------------------------------------------------
// event-loop-blocking
// ----------------------------------------------------------------------

TEST(LintEventLoop, BlockingCallReachableFromRootIsFlagged) {
  const auto findings = lint_graph(
      "void loop_root() { step(); }\n"
      "void step() { block_op(); }\n",
      "event-loop-blocking");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("block_op"), std::string::npos);
  EXPECT_NE(findings[0].message.find("loop_root -> step"), std::string::npos);
}

TEST(LintEventLoop, UnreachableBlockingCallIsClean) {
  EXPECT_TRUE(lint_graph("void loop_root() { step(); }\n"
                         "void step() {}\n"
                         "void offline_job() { block_op(); }\n",
                         "event-loop-blocking")
                  .empty());
}

TEST(LintEventLoop, PollerWaitIsTheBlessedBlock) {
  EXPECT_TRUE(lint_graph("void loop_root() { poller.wait(50); }\n",
                         "event-loop-blocking")
                  .empty());
  EXPECT_EQ(lint_graph("void loop_root() { other.wait(50); }\n",
                       "event-loop-blocking")
                .size(),
            1u);
}

TEST(LintEventLoop, PragmaOnCallLineSuppresses) {
  EXPECT_TRUE(lint_graph("void loop_root() { step(); }\n"
                         "void step() {\n"
                         "  block_op();  // sbqlint:allow(event-loop-blocking): bounded\n"
                         "}\n",
                         "event-loop-blocking")
                  .empty());
}

TEST(LintEventLoop, PragmaOnDefinitionLineSuppressesWholeFunction) {
  // Function-scoped suppression: the pragma sits on (or right above) the
  // attributed function's definition line, not the finding line.
  EXPECT_TRUE(lint_graph("void loop_root() { step(); }\n"
                         "// sbqlint:allow(event-loop-blocking): drains one item\n"
                         "void step() {\n"
                         "  block_op();\n"
                         "}\n",
                         "event-loop-blocking")
                  .empty());
}

TEST(LintEventLoop, PragmaOnAnotherFunctionDoesNotLeak) {
  const auto findings = lint_graph(
      "// sbqlint:allow(event-loop-blocking): wrong function\n"
      "void loop_root() { step(); }\n"
      "void step() {\n"
      "  block_op();\n"
      "}\n",
      "event-loop-blocking");
  EXPECT_EQ(findings.size(), 1u);
}

// ----------------------------------------------------------------------
// Call-graph construction: attribution, folding, resolution edge cases.
// ----------------------------------------------------------------------

TEST(LintCallGraph, LambdaBodyIsAttributedToEnclosingFunction) {
  const auto findings = lint_graph(
      "void loop_root() { submit([&] { block_op(); }); }\n",
      "event-loop-blocking");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("loop_root"), std::string::npos);
}

TEST(LintCallGraph, OverloadSetsFoldIntoOneNode) {
  const auto findings = lint_graph(
      "void loop_root() { helper(1); }\n"
      "void helper(int a) {}\n"
      "void helper(double b) { block_op(); }\n",
      "event-loop-blocking");
  EXPECT_EQ(findings.size(), 1u);
}

TEST(LintCallGraph, ImplicitCallPrefersSameClassMethod) {
  // Loop::loop_root's `work()` is Loop::work, not the namespace-level
  // work() that blocks.
  EXPECT_TRUE(lint_graph("namespace n {\n"
                         "void work() { block_op(); }\n"
                         "struct Loop {\n"
                         "  void loop_root() { work(); }\n"
                         "  void work() {}\n"
                         "};\n"
                         "}\n",
                         "event-loop-blocking")
                  .empty());
}

TEST(LintCallGraph, FreeFunctionResolvesWhenNoMethodShadowsIt) {
  const auto findings = lint_graph(
      "namespace n {\n"
      "void work() { block_op(); }\n"
      "struct Loop {\n"
      "  void loop_root() { work(); }\n"
      "};\n"
      "}\n",
      "event-loop-blocking");
  EXPECT_EQ(findings.size(), 1u);
}

TEST(LintCallGraph, RecursiveCycleTerminates) {
  const auto findings = lint_graph(
      "void loop_root() { ping(); }\n"
      "void ping() { pong(); }\n"
      "void pong() { ping(); block_op(); }\n",
      "event-loop-blocking");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("loop_root -> ping -> pong"),
            std::string::npos);
}

TEST(LintCallGraph, EdgePragmaConnectsInvisibleCallback) {
  const auto findings = lint_graph(
      "void loop_root() { run_callbacks(); }\n"
      "// sbqlint:edge(loop_root -> on_ready)\n"
      "void on_ready() { block_op(); }\n",
      "event-loop-blocking");
  EXPECT_EQ(findings.size(), 1u);
}

TEST(LintCallGraph, DeclarationIsNotACall) {
  // `Blk block_op(1)` declares a variable named like the blocking
  // primitive; only call positions count.
  EXPECT_TRUE(lint_graph("void loop_root() { Blk block_op(1); }\n",
                         "event-loop-blocking")
                  .empty());
}

TEST(LintCallGraph, GlobalQualifiedSyscallIsNotARepoCall) {
  // `::block_op(...)` names the C library / kernel, not a repo function.
  EXPECT_TRUE(lint_graph("void loop_root() { ::block_op(7); }\n",
                         "event-loop-blocking")
                  .empty());
}

TEST(LintCallGraph, AmbiguousReceiverCallResolvesToNothing) {
  // `x.step()` with two unrelated candidate classes: the receiver's type
  // is unknowable, so no edge is drawn (sbqlint:edge declares real ones).
  EXPECT_TRUE(lint_graph("void loop_root() { x.step(); }\n"
                         "struct B { void step() { block_op(); } };\n"
                         "struct C { void step() { block_op(); } };\n",
                         "event-loop-blocking")
                  .empty());
}

TEST(LintCallGraph, UniqueReceiverCallResolves) {
  const auto findings = lint_graph(
      "void loop_root() { x.step(); }\n"
      "struct B { void step() { block_op(); } };\n",
      "event-loop-blocking");
  EXPECT_EQ(findings.size(), 1u);
}

// ----------------------------------------------------------------------
// lock-discipline
// ----------------------------------------------------------------------

TEST(LintLock, BlockingCallUnderLockIsFlagged) {
  const auto findings = lint_graph(
      "struct S {\n"
      "  int mu_;\n"
      "  void f() { std::lock_guard l(mu_); block_op(); }\n"
      "};\n",
      "lock-discipline");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("while holding lock 'mu_'"),
            std::string::npos);
}

TEST(LintLock, GuardScopeEndsAtBlockExit) {
  EXPECT_TRUE(lint_graph("struct S {\n"
                         "  int mu_;\n"
                         "  void f() {\n"
                         "    { std::lock_guard l(mu_); touch(); }\n"
                         "    block_op();\n"
                         "  }\n"
                         "};\n",
                         "lock-discipline")
                  .empty());
}

TEST(LintLock, CvWaitReleasesItsGuard) {
  EXPECT_TRUE(lint_graph("struct S {\n"
                         "  int mu_; int cv_;\n"
                         "  void f() {\n"
                         "    std::unique_lock l(mu_);\n"
                         "    cv_.wait(l);\n"
                         "  }\n"
                         "};\n",
                         "lock-discipline")
                  .empty());
}

TEST(LintLock, NestedSameLockIsSelfDeadlock) {
  const auto findings = lint_graph(
      "struct S {\n"
      "  int mu_;\n"
      "  void f() { std::lock_guard a(mu_); std::lock_guard b(mu_); }\n"
      "};\n",
      "lock-discipline");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("self-deadlock"), std::string::npos);
}

TEST(LintLock, CalleeReacquiringHeldLockIsFlagged) {
  const auto findings = lint_graph(
      "struct S {\n"
      "  int mu_;\n"
      "  void f() { std::lock_guard l(mu_); helper(); }\n"
      "  void helper() { std::lock_guard l(mu_); }\n"
      "};\n",
      "lock-discipline");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("re-acquires lock 'mu_'"),
            std::string::npos);
}

TEST(LintLock, AbbaPairIsFlaggedOnce) {
  const auto findings = lint_graph(
      "struct S {\n"
      "  int a_mu_; int b_mu_;\n"
      "  void f() { std::lock_guard l1(a_mu_); std::lock_guard l2(b_mu_); }\n"
      "  void g() { std::lock_guard l2(b_mu_); std::lock_guard l1(a_mu_); }\n"
      "};\n",
      "lock-discipline");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("ABBA"), std::string::npos);
}

TEST(LintLock, ConsistentOrderAcrossFunctionsIsClean) {
  EXPECT_TRUE(lint_graph("struct S {\n"
                         "  int a_mu_; int b_mu_;\n"
                         "  void f() { std::lock_guard l1(a_mu_); std::lock_guard l2(b_mu_); }\n"
                         "  void g() { std::lock_guard l1(a_mu_); std::lock_guard l2(b_mu_); }\n"
                         "};\n",
                         "lock-discipline")
                  .empty());
}

TEST(LintLock, CrossFunctionAbbaThroughCalleeIsFlagged) {
  // f holds a_mu_ and calls g, which takes b_mu_; h takes them in the
  // reverse order. The cycle spans the call graph, not one body.
  const auto findings = lint_graph(
      "struct S {\n"
      "  int a_mu_; int b_mu_;\n"
      "  void f() { std::lock_guard l(a_mu_); g(); }\n"
      "  void g() { std::lock_guard l(b_mu_); }\n"
      "  void h() { std::lock_guard l2(b_mu_); std::lock_guard l1(a_mu_); }\n"
      "};\n",
      "lock-discipline");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("lock-order cycle"), std::string::npos);
}

TEST(LintLock, ManualLockUnlockSpanIsTracked) {
  const auto findings = lint_graph(
      "struct S {\n"
      "  int mu_;\n"
      "  void f() { mu_.lock(); block_op(); mu_.unlock(); }\n"
      "  void g() { mu_.lock(); mu_.unlock(); block_op(); }\n"
      "};\n",
      "lock-discipline");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintLock, PragmaOnDefinitionLineSuppresses) {
  EXPECT_TRUE(lint_graph("struct S {\n"
                         "  int mu_;\n"
                         "  // sbqlint:allow(lock-discipline): startup only\n"
                         "  void f() { std::lock_guard l(mu_); block_op(); }\n"
                         "};\n",
                         "lock-discipline")
                  .empty());
}

// ----------------------------------------------------------------------
// hot-path-allocation
// ----------------------------------------------------------------------

TEST(LintHotPath, FlatStringOnHotPathIsFlagged) {
  const auto findings = lint_graph(
      "void hot_root() { stage(); }\n"
      "void stage() { std::string s(\"x\"); }\n",
      "hot-path-allocation");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("std::string"), std::string::npos);
  EXPECT_NE(findings[0].message.find("hot_root -> stage"), std::string::npos);
}

TEST(LintHotPath, FlatVectorOnHotPathIsFlagged) {
  const auto findings = lint_graph(
      "void hot_root() { std::vector<char> v(1024); }\n",
      "hot-path-allocation");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("std::vector<char>"), std::string::npos);
}

TEST(LintHotPath, OffPathAllocationIsClean) {
  EXPECT_TRUE(lint_graph("void hot_root() { append_segment(); }\n"
                         "void cold_setup() { std::string s(\"x\"); }\n",
                         "hot-path-allocation")
                  .empty());
}

TEST(LintHotPath, ThrowExpressionsLeaveTheHotPath) {
  // Error exits are off the fast path by definition; building the
  // exception message may allocate.
  EXPECT_TRUE(lint_graph(
                  "void hot_root() {\n"
                  "  if (bad) throw Error(std::string(\"context: \") + why);\n"
                  "}\n",
                  "hot-path-allocation")
                  .empty());
}

TEST(LintHotPath, AllowlistedStagingFunctionMayAllocate) {
  // staging_ok's own body is exempt, but traversal continues through it.
  const auto findings = lint_graph(
      "void hot_root() { staging_ok(); }\n"
      "void staging_ok() { std::string head(\"hdr\"); deeper(); }\n"
      "void deeper() { std::string s(\"x\"); }\n",
      "hot-path-allocation");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintHotPath, CopyingCallsAreFlagged) {
  const auto findings = lint_graph(
      "void hot_root() { auto s = std::to_string(v); }\n",
      "hot-path-allocation");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("copies on the zero-copy hot path"),
            std::string::npos);
}

TEST(LintHotPath, PragmaSuppresses) {
  EXPECT_TRUE(lint_graph(
                  "void hot_root() {\n"
                  "  std::string s(\"x\");  // sbqlint:allow(hot-path-allocation): startup\n"
                  "}\n",
                  "hot-path-allocation")
                  .empty());
}

// ----------------------------------------------------------------------
// guarded-field
// ----------------------------------------------------------------------

TEST(LintGuardedField, UnlockedWriteIsFlagged) {
  const auto findings = lint_graph(
      "struct S {\n"
      "  int mu_;\n"
      "  int x_ = 0;  // sbqlint:guarded_by(mu_)\n"
      "  void touch() { x_ = 1; }\n"
      "};\n",
      "guarded-field");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("write to field 'x_'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("unlocked path:"), std::string::npos);
  EXPECT_NE(findings[0].message.find("S::touch"), std::string::npos);
}

TEST(LintGuardedField, LockedAccessIsClean) {
  EXPECT_TRUE(lint_graph(
                  "struct S {\n"
                  "  int mu_;\n"
                  "  int x_ = 0;  // sbqlint:guarded_by(mu_)\n"
                  "  void touch() { std::lock_guard lock(mu_); x_ = 1; }\n"
                  "  int peek() { std::lock_guard lock(mu_); return x_; }\n"
                  "};\n",
                  "guarded-field")
                  .empty());
}

TEST(LintGuardedField, CallerHeldLockPropagatesToCallee) {
  // The `*_locked` helper idiom: the callee never takes the lock itself,
  // every caller enters with it held.
  EXPECT_TRUE(lint_graph(
                  "struct S {\n"
                  "  int mu_;\n"
                  "  int x_ = 0;  // sbqlint:guarded_by(mu_)\n"
                  "  void outer() { std::lock_guard lock(mu_); inner(); }\n"
                  "  void also() { std::lock_guard lock(mu_); inner(); }\n"
                  "  void inner() { x_ = 2; }\n"
                  "};\n",
                  "guarded-field")
                  .empty());
}

TEST(LintGuardedField, WrongMutexInCallerIsFlaggedWithWitness) {
  const auto findings = lint_graph(
      "struct S {\n"
      "  int mu_;\n"
      "  int other_mu_;\n"
      "  int x_ = 0;  // sbqlint:guarded_by(mu_)\n"
      "  void outer() { std::lock_guard lock(other_mu_); inner(); }\n"
      "  void inner() { x_ = 2; }\n"
      "};\n",
      "guarded-field");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("S::outer -> S::inner"),
            std::string::npos);
}

TEST(LintGuardedField, ConstructorMayInitializeUnlocked) {
  EXPECT_TRUE(lint_graph(
                  "struct S {\n"
                  "  int mu_;\n"
                  "  int x_ = 0;  // sbqlint:guarded_by(mu_)\n"
                  "  S() { x_ = 7; }\n"
                  "  ~S() { x_ = 0; }\n"
                  "};\n",
                  "guarded-field")
                  .empty());
}

TEST(LintGuardedField, ReceiverQualifiedAccessMatchesByLockName) {
  // `lock(b.box_mu_)` keys the guard under Owner (the locking function's
  // class), not Box where the field lives: receiver-qualified accesses
  // must match the guard by the lock member's name.
  const auto findings = lint_graph(
      "struct Owner {\n"
      "  struct Box {\n"
      "    int box_mu_;\n"
      "    int q_ = 0;  // sbqlint:guarded_by(box_mu_)\n"
      "  };\n"
      "  void good(Box& b) { std::lock_guard lock(b.box_mu_); b.q_ = 1; }\n"
      "  void bad(Box& b) { b.q_ = 1; }\n"
      "};\n",
      "guarded-field");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 7);
}

TEST(LintGuardedField, PragmaSuppresses) {
  EXPECT_TRUE(lint_graph(
                  "struct S {\n"
                  "  int mu_;\n"
                  "  int x_ = 0;  // sbqlint:guarded_by(mu_)\n"
                  "  void touch() { x_ = 1; }  // sbqlint:allow(guarded-field): startup only\n"
                  "};\n",
                  "guarded-field")
                  .empty());
}

// ----------------------------------------------------------------------
// thread-affinity
// ----------------------------------------------------------------------

TEST(LintAffinity, FunctionReachableFromWrongRootIsFlagged) {
  const auto findings = lint_graph(
      "void alpha_root() { shared_step(); }\n"
      "void beta_root() { shared_step(); }\n"
      "// sbqlint:affine(alpha)\n"
      "void shared_step() {}\n",
      "thread-affinity");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("affine to 'alpha'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("'beta' root"), std::string::npos);
  EXPECT_NE(findings[0].message.find("beta_root -> shared_step"),
            std::string::npos);
}

TEST(LintAffinity, OwnRootOnlyIsClean) {
  EXPECT_TRUE(lint_graph(
                  "void alpha_root() { own_step(); }\n"
                  "void beta_root() {}\n"
                  "// sbqlint:affine(alpha)\n"
                  "void own_step() {}\n",
                  "thread-affinity")
                  .empty());
}

TEST(LintAffinity, AffineFieldAccessFromWrongRootIsFlagged) {
  const auto findings = lint_graph(
      "struct S {\n"
      "  int w_ = 0;  // sbqlint:affine(alpha)\n"
      "  void step() { w_ = 1; }\n"
      "};\n"
      "void alpha_root(S& s) { s.step(); }\n"
      "void beta_root(S& s) { s.step(); }\n",
      "thread-affinity");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("write to field 'w_' affine to 'alpha'"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("'beta' root"), std::string::npos);
}

TEST(LintAffinity, PragmaSuppresses) {
  EXPECT_TRUE(lint_graph(
                  "void alpha_root() { shared_step(); }\n"
                  "void beta_root() { shared_step(); }\n"
                  "// sbqlint:affine(alpha)\n"
                  "void shared_step() {}  // sbqlint:allow(thread-affinity): migrating\n",
                  "thread-affinity")
                  .empty());
}

// ----------------------------------------------------------------------
// bad-pragma
// ----------------------------------------------------------------------

TEST(LintBadPragma, UnknownRuleNameIsFlagged) {
  const auto findings = lint_rule(
      "src/http/server.cpp",
      "// sbqlint:allow(no-such-rule): typo\nvoid f() {}\n", "bad-pragma");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("no-such-rule"), std::string::npos);
}

TEST(LintBadPragma, MalformedEdgePragmaIsFlagged) {
  const auto findings = lint_rule(
      "src/http/server.cpp", "// sbqlint:edge(no arrow here)\n", "bad-pragma");
  ASSERT_EQ(findings.size(), 1u);
}

TEST(LintBadPragma, DanglingEdgePragmaIsFlagged) {
  const auto findings = lint_graph(
      "// sbqlint:edge(nope -> nada)\nvoid loop_root() {}\n", "bad-pragma");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("does not resolve"), std::string::npos);
}

TEST(LintBadPragma, MalformedFieldAnnotationIsFlagged) {
  const auto findings = lint_rule(
      "src/http/server.cpp",
      "struct S { int x_ = 0; };  // sbqlint:guarded_by(two words)\n",
      "bad-pragma");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("malformed"), std::string::npos);
}

TEST(LintBadPragma, DanglingFieldAnnotationIsFlagged) {
  const auto findings = lint_graph(
      "// sbqlint:guarded_by(mu_)\n"
      "void loop_root() {}\n",
      "bad-pragma");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("does not bind"), std::string::npos);
}

TEST(LintBadPragma, UnknownAffinityRootIsFlagged) {
  const auto findings = lint_graph(
      "// sbqlint:affine(gamma)\n"
      "void loop_root() {}\n",
      "bad-pragma");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("unknown thread root"), std::string::npos);
}

TEST(LintBadPragma, ProseMentioningPragmasIsNotAPragma) {
  // A pragma must open its comment; documentation citing the form
  // mid-sentence (or quoting an example line) never registers.
  EXPECT_TRUE(lint("src/http/server.cpp",
                   "// see sbqlint:allow(whatever) in the docs\n"
                   "//   // sbqlint:edge(caller -> callee) — example form\n")
                  .empty());
}

// ---------------------------------------------------------------------- //
// Seeded regressions against the real tree: inject one violation of each
// kind next to the real event/hot roots and demand exactly that finding.
// ---------------------------------------------------------------------- //

std::vector<Finding> lint_seeded(const SourceFile& seed,
                                 const std::string& rule) {
  std::vector<SourceFile> files = load_tree(SBQ_SOURCE_ROOT);
  files.push_back(seed);
  std::vector<Finding> out;
  for (Finding& f : analyze_program(files, default_config())) {
    if (f.rule == rule) out.push_back(std::move(f));
  }
  return out;
}

TEST(LintSeeded, BlockingCallInEventReachableFunctionIsCaught) {
  const auto findings = lint_seeded(
      {"src/http/seeded_evt.cpp",
       "// sbqlint:edge(Server::Impl::resume -> seeded_block)\n"
       "namespace sbq::http {\n"
       "void seeded_block() { wait_on(source, 5); }\n"
       "}\n"},
      "event-loop-blocking");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/http/seeded_evt.cpp");
  EXPECT_NE(findings[0].message.find("poll_step"), std::string::npos);
}

TEST(LintSeeded, AbbaLockPairIsCaught) {
  const auto findings = lint_seeded(
      {"src/http/seeded_abba.cpp",
       "namespace sbq::http {\n"
       "struct Seeded {\n"
       "  int a_mu_; int b_mu_;\n"
       "  void f() { std::lock_guard l1(a_mu_); std::lock_guard l2(b_mu_); }\n"
       "  void g() { std::lock_guard l2(b_mu_); std::lock_guard l1(a_mu_); }\n"
       "};\n"
       "}\n"},
      "lock-discipline");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/http/seeded_abba.cpp");
  EXPECT_NE(findings[0].message.find("lock-order cycle"), std::string::npos);
}

TEST(LintSeeded, HotPathStringCopyIsCaught) {
  const auto findings = lint_seeded(
      {"src/http/seeded_hot.cpp",
       "// sbqlint:edge(Response::serialize_to -> seeded_copy)\n"
       "namespace sbq::http {\n"
       "void seeded_copy() { std::string flat(\"copied\"); }\n"
       "}\n"},
      "hot-path-allocation");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/http/seeded_hot.cpp");
  EXPECT_NE(findings[0].message.find("serialize_to"), std::string::npos);
}

TEST(LintSeeded, UnlockedWriteToGuardedFieldIsCaught) {
  const auto findings = lint_seeded(
      {"src/http/seeded_guard.cpp",
       "namespace sbq::http {\n"
       "struct SeededGuard {\n"
       "  int seeded_mu_;\n"
       "  int counter_ = 0;  // sbqlint:guarded_by(seeded_mu_)\n"
       "  void bump() { counter_ = counter_ + 1; }\n"
       "};\n"
       "}\n"},
      "guarded-field");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/http/seeded_guard.cpp");
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("write to field 'counter_'"),
            std::string::npos);
  // The witness chain must name the offending accessor.
  EXPECT_NE(findings[0].message.find("unlocked path:"), std::string::npos);
  EXPECT_NE(findings[0].message.find("SeededGuard::bump"), std::string::npos);
}

TEST(LintSeeded, WrongMutexOnTheOnlyPathInIsCaught) {
  // The guarded access is reached only through a caller that holds a
  // DIFFERENT mutex — the witness chain walks that unlocked path.
  const auto findings = lint_seeded(
      {"src/http/seeded_wrongmu.cpp",
       "namespace sbq::http {\n"
       "struct SeededWrong {\n"
       "  int right_mu_;\n"
       "  int wrong_mu_;\n"
       "  int state_ = 0;  // sbqlint:guarded_by(right_mu_)\n"
       "  void entry() { std::lock_guard lock(wrong_mu_); leaf(); }\n"
       "  void leaf() { state_ = 1; }\n"
       "};\n"
       "}\n"},
      "guarded-field");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/http/seeded_wrongmu.cpp");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("without holding 'right_mu_'"),
            std::string::npos);
  EXPECT_NE(
      findings[0].message.find("SeededWrong::entry -> "),
      std::string::npos);
  EXPECT_NE(findings[0].message.find("SeededWrong::leaf"), std::string::npos);
}

TEST(LintSeeded, WorkerCallingShardAffineFunctionIsCaught) {
  // The exchange half of a pool thread crossing into poll-affine code:
  // the path witness must lead from the exchange root to the affine callee.
  const auto findings = lint_seeded(
      {"src/http/seeded_affinity.cpp",
       "// sbqlint:edge(Server::Impl::run_exchange -> seeded_touch_shard)\n"
       "namespace sbq::http {\n"
       "// sbqlint:affine(poll)\n"
       "void seeded_touch_shard() {}\n"
       "}\n"},
      "thread-affinity");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/http/seeded_affinity.cpp");
  EXPECT_NE(findings[0].message.find("affine to 'poll'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("'exchange' root"), std::string::npos);
  EXPECT_NE(findings[0].message.find("run_exchange"), std::string::npos);
  EXPECT_NE(findings[0].message.find("seeded_touch_shard"), std::string::npos);
}

TEST(LintSeeded, RunStatsCountTheProgram) {
  RunStats stats;
  const auto findings = analyze_program(load_tree(SBQ_SOURCE_ROOT),
                                        default_config(), {}, &stats);
  EXPECT_TRUE(findings.empty());
  EXPECT_GT(stats.files_scanned, 100u);
  EXPECT_GT(stats.functions, 500u);
  EXPECT_GT(stats.call_edges, 1000u);
  EXPECT_GE(stats.annotated_fields, 30u);
  EXPECT_GE(stats.affinity_roots, 3u);
  EXPECT_EQ(stats.rules_run.size(), 12u);
}

// ---------------------------------------------------------------------- //
// End-to-end: the repository itself must lint clean.
// ---------------------------------------------------------------------- //

TEST(LintRepo, WholeRepositoryIsClean) {
  const auto findings = analyze_tree(SBQ_SOURCE_ROOT, default_config());
  for (const Finding& finding : findings) {
    ADD_FAILURE() << format_finding(finding);
  }
  EXPECT_TRUE(findings.empty());
}

}  // namespace
}  // namespace sbq::lint
