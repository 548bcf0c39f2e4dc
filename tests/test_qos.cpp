// Unit tests for the quality layer: RTT estimation, quality files,
// hysteresis policy, and the quality manager.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>

#include "pbio/format.h"
#include "qos/manager.h"
#include "qos/policy.h"
#include "qos/quality_file.h"
#include "qos/rtt.h"

namespace sbq::qos {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

// ---------------------------------------------------------------- RTT

TEST(Rtt, FirstSampleInitializes) {
  EwmaEstimator est;
  EXPECT_FALSE(est.has_sample());
  est.update(1000.0);
  EXPECT_DOUBLE_EQ(est.value_us(), 1000.0);
}

TEST(Rtt, ExponentialAverageWithPaperAlpha) {
  // R = 0.875 * R + 0.125 * M
  EwmaEstimator est(0.875);
  est.update(1000.0);
  est.update(2000.0);
  EXPECT_DOUBLE_EQ(est.value_us(), 0.875 * 1000.0 + 0.125 * 2000.0);
}

TEST(Rtt, ConvergesTowardSteadyInput) {
  EwmaEstimator est;
  est.update(100.0);
  for (int i = 0; i < 100; ++i) est.update(900.0);
  EXPECT_NEAR(est.value_us(), 900.0, 1.0);
}

TEST(Rtt, SmoothsSpikes) {
  EwmaEstimator est;
  est.update(1000.0);
  est.update(50000.0);  // one spike
  EXPECT_LT(est.value_us(), 8000.0);
}

TEST(Rtt, ResetClears) {
  EwmaEstimator est;
  est.update(5.0);
  est.reset();
  EXPECT_FALSE(est.has_sample());
  EXPECT_DOUBLE_EQ(est.value_us(), 0.0);
}

TEST(Rtt, RejectsBadInput) {
  EXPECT_THROW(EwmaEstimator{1.5}, QosError);
  EwmaEstimator est;
  EXPECT_THROW(est.update(-1.0), QosError);
}

TEST(Rtt, SampleComputation) {
  EXPECT_DOUBLE_EQ(rtt_sample_us(1000, 3500), 2500.0);
  EXPECT_DOUBLE_EQ(rtt_sample_us(1000, 3500, 500), 2000.0);
  // Prep time larger than the raw interval clamps at zero.
  EXPECT_DOUBLE_EQ(rtt_sample_us(1000, 1200, 900), 0.0);
  EXPECT_THROW(rtt_sample_us(2000, 1000), QosError);
}

// ---------------------------------------------------------------- quality files

constexpr const char* kImagePolicy = R"(# imaging quality policy
attribute rtt_us
0      5000   - full_image
5000   20000  - half_image
20000  inf    - quarter_image
)";

TEST(QualityFileTest, ParsesRulesAndAttribute) {
  const QualityFile file = QualityFile::parse(kImagePolicy);
  EXPECT_EQ(file.attribute(), "rtt_us");
  ASSERT_EQ(file.rules().size(), 3u);
  EXPECT_EQ(file.select(100.0), "full_image");
  EXPECT_EQ(file.select(5000.0), "half_image");  // lo-inclusive
  EXPECT_EQ(file.select(19999.0), "half_image");
  EXPECT_EQ(file.select(1e9), "quarter_image");  // inf upper bound
}

TEST(QualityFileTest, DefaultAttributeName) {
  const QualityFile file = QualityFile::parse("0 inf - only_type\n");
  EXPECT_EQ(file.attribute(), "rtt_us");
}

TEST(QualityFileTest, SerializeRoundTrips) {
  const QualityFile file = QualityFile::parse(kImagePolicy);
  const QualityFile back = QualityFile::parse(file.serialize());
  EXPECT_EQ(back.attribute(), file.attribute());
  ASSERT_EQ(back.rules().size(), file.rules().size());
  EXPECT_EQ(back.select(12345.0), file.select(12345.0));
}

TEST(QualityFileTest, GapIsSelectionError) {
  const QualityFile file = QualityFile::parse("0 10 - a\n20 30 - b\n");
  EXPECT_THROW((void)file.select(15.0), QosError);
}

TEST(QualityFileTest, RejectsMalformedInput) {
  EXPECT_THROW(QualityFile::parse(""), QosError);
  EXPECT_THROW(QualityFile::parse("10 5 - inverted\n"), QosError);
  EXPECT_THROW(QualityFile::parse("0 10 - a\n5 20 - overlap\n"), QosError);
  EXPECT_THROW(QualityFile::parse("0 10 missing_dash a\n"), QosError);
  EXPECT_THROW(QualityFile::parse("x y - a\n"), ParseError);
}

// ---------------------------------------------------------------- policy

TEST(Policy, FirstSelectionIsImmediate) {
  SelectionPolicy policy(QualityFile::parse(kImagePolicy), 3);
  EXPECT_EQ(policy.select(100.0), "full_image");
  EXPECT_EQ(policy.switch_count(), 0u);
}

TEST(Policy, RequiresConsecutiveSelectionsToSwitch) {
  SelectionPolicy policy(QualityFile::parse(kImagePolicy), 3);
  EXPECT_EQ(policy.select(100.0), "full_image");
  // Two readings in the half_image interval: not yet enough.
  EXPECT_EQ(policy.select(8000.0), "full_image");
  EXPECT_EQ(policy.select(8000.0), "full_image");
  // Third consecutive: switch.
  EXPECT_EQ(policy.select(8000.0), "half_image");
  EXPECT_EQ(policy.switch_count(), 1u);
}

TEST(Policy, StreakResetsOnRevert) {
  SelectionPolicy policy(QualityFile::parse(kImagePolicy), 3);
  policy.select(100.0);
  policy.select(8000.0);
  policy.select(8000.0);
  policy.select(100.0);   // back to active interval: streak resets
  policy.select(8000.0);
  policy.select(8000.0);
  EXPECT_EQ(policy.active(), "full_image");
  EXPECT_EQ(policy.select(8000.0), "half_image");
}

TEST(Policy, ThresholdOneDisablesHysteresis) {
  SelectionPolicy policy(QualityFile::parse(kImagePolicy), 1);
  EXPECT_EQ(policy.select(100.0), "full_image");
  EXPECT_EQ(policy.select(8000.0), "half_image");
  EXPECT_EQ(policy.select(100.0), "full_image");
  EXPECT_EQ(policy.switch_count(), 2u);
}

TEST(Policy, HysteresisDampsOscillation) {
  // Alternating readings straddling a boundary: with hysteresis the type
  // never flips; without it, it flips every reading. This is the paper's
  // oscillation scenario.
  SelectionPolicy damped(QualityFile::parse(kImagePolicy), 3);
  SelectionPolicy raw(QualityFile::parse(kImagePolicy), 1);
  for (int i = 0; i < 50; ++i) {
    const double reading = (i % 2 == 0) ? 4000.0 : 6000.0;
    damped.select(reading);
    raw.select(reading);
  }
  EXPECT_EQ(damped.switch_count(), 0u);
  EXPECT_GT(raw.switch_count(), 40u);
}

TEST(Policy, RejectsBadThreshold) {
  EXPECT_THROW(SelectionPolicy(QualityFile::parse(kImagePolicy), 0), QosError);
}

// ---------------------------------------------------------------- manager

FormatPtr full_format() {
  return FormatBuilder("full_image")
      .add_scalar("width", TypeKind::kInt32)
      .add_scalar("height", TypeKind::kInt32)
      .add_string("caption")
      .build();
}

FormatPtr small_format() {
  return FormatBuilder("half_image")
      .add_scalar("width", TypeKind::kInt32)
      .add_scalar("height", TypeKind::kInt32)
      .build();
}

std::shared_ptr<QualityManager> make_manager(int threshold = 1) {
  auto qm = std::make_shared<QualityManager>(QualityFile::parse(kImagePolicy),
                                             threshold);
  qm->register_message_type("full_image", full_format());
  qm->register_message_type("half_image", small_format());
  qm->register_message_type("quarter_image", small_format());
  return qm;
}

TEST(Manager, UpdateAttributeDrivesSelection) {
  auto qm_ptr = make_manager();
  QualityManager& qm = *qm_ptr;
  qm.update_attribute("rtt_us", 100.0);
  EXPECT_EQ(qm.select().name, "full_image");
  qm.update_attribute("rtt_us", 50000.0);
  EXPECT_EQ(qm.select().name, "quarter_image");
}

TEST(Manager, ObserveRttSmoothsIntoAttribute) {
  auto qm_ptr = make_manager();
  QualityManager& qm = *qm_ptr;
  qm.observe_rtt(1000.0);
  EXPECT_DOUBLE_EQ(qm.attribute("rtt_us"), 1000.0);
  qm.observe_rtt(9000.0);
  EXPECT_DOUBLE_EQ(qm.attribute("rtt_us"), 0.875 * 1000.0 + 0.125 * 9000.0);
}

TEST(Manager, UnknownAttributeThrows) {
  auto qm_ptr = make_manager();
  QualityManager& qm = *qm_ptr;
  EXPECT_THROW((void)qm.attribute("cpu_load"), QosError);
  qm.update_attribute("cpu_load", 0.5);
  EXPECT_DOUBLE_EQ(qm.attribute("cpu_load"), 0.5);
}

TEST(Manager, UnregisteredSelectedTypeThrows) {
  QualityManager qm(QualityFile::parse(kImagePolicy), 1);
  qm.update_attribute("rtt_us", 100.0);
  EXPECT_THROW(qm.select(), QosError);
}

TEST(Manager, DefaultHandlerProjects) {
  auto qm_ptr = make_manager();
  QualityManager& qm = *qm_ptr;
  const Value full = Value::record(
      {{"width", 640}, {"height", 480}, {"caption", "andromeda"}});
  const Value reduced = qm.apply(full, qm.required_type("half_image"));
  EXPECT_EQ(reduced.field("width").as_i64(), 640);
  EXPECT_EQ(reduced.field("height").as_i64(), 480);
  EXPECT_EQ(reduced.find_field("caption"), nullptr);
}

TEST(Manager, CustomHandlerReceivesAttributes) {
  auto qm_ptr = make_manager();
  QualityManager& qm = *qm_ptr;
  double seen_rtt = -1.0;
  qm.register_message_type(
      "half_image", small_format(),
      [&](const Value& full, const pbio::FormatDesc& target,
          const AttributeMap& attrs) {
        seen_rtt = attrs.at("rtt_us");
        Value v = pbio::project_value(full, target);
        v.set_field("width", full.field("width").as_i64() / 2);
        v.set_field("height", full.field("height").as_i64() / 2);
        return v;
      });
  qm.update_attribute("rtt_us", 7777.0);
  const Value full = Value::record(
      {{"width", 640}, {"height", 480}, {"caption", "x"}});
  const Value reduced = qm.apply(full, qm.required_type("half_image"));
  EXPECT_EQ(reduced.field("width").as_i64(), 320);
  EXPECT_DOUBLE_EQ(seen_rtt, 7777.0);
}

TEST(Manager, InstallHandlerRacesSelectAndApply) {
  // One thread swaps the selected type's handler while another selects and
  // applies: every result must come whole from one of the two handlers.
  auto qm = make_manager();
  const auto scale = [](std::int64_t divisor) {
    return [divisor](const Value& full, const pbio::FormatDesc& target,
                     const AttributeMap&) {
      Value v = pbio::project_value(full, target);
      v.set_field("width", full.field("width").as_i64() / divisor);
      return v;
    };
  };
  qm->install_handler("half_image", scale(2));
  qm->update_attribute("rtt_us", 5000.0);  // half_image
  ASSERT_EQ(qm->select().name, "half_image");

  constexpr int kInstalls = 2000;
  std::atomic<bool> done{false};
  std::thread installer([&] {
    for (int i = 0; i < kInstalls; ++i) {
      qm->install_handler("half_image", scale(i % 2 == 0 ? 4 : 2));
    }
    done.store(true);
  });
  const Value full = Value::record({{"width", 640}, {"height", 480}, {"caption", "x"}});
  int applied = 0;
  int bad = 0;
  while (!done.load() || applied < 100) {
    const std::int64_t width = qm->apply(full, qm->select()).field("width").as_i64();
    if (width != 320 && width != 160) ++bad;
    ++applied;
  }
  installer.join();
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(qm->apply(full, qm->select()).field("width").as_i64(), 320);
}

TEST(Manager, SelectSharesTheHandlerRatherThanCopyingIt) {
  // A handler whose capture counts its own copies: selecting its type must
  // not copy it, only share it.
  struct Counted {
    std::shared_ptr<int> copies = std::make_shared<int>(0);
    Counted() = default;
    Counted(const Counted& other) : copies(other.copies) { ++*copies; }
    Counted(Counted&&) = default;
    Value operator()(const Value& full, const pbio::FormatDesc& target,
                     const AttributeMap&) const {
      return pbio::project_value(full, target);
    }
  };
  Counted handler;
  const std::shared_ptr<int> copies = handler.copies;
  auto qm = make_manager();
  qm->install_handler("half_image", std::move(handler));
  qm->update_attribute("rtt_us", 5000.0);  // half_image
  const int installed = *copies;
  for (int i = 0; i < 100; ++i) ASSERT_EQ(qm->select().name, "half_image");
  EXPECT_EQ(*copies, installed);
  const Value full = Value::record({{"width", 640}, {"height", 480}, {"caption", "x"}});
  EXPECT_EQ(qm->apply(full, qm->select()).field("width").as_i64(), 640);
  EXPECT_EQ(*copies, installed);
}

TEST(Manager, RegisterRejectsNullFormat) {
  QualityManager qm(QualityFile::parse(kImagePolicy));
  EXPECT_THROW(qm.register_message_type("x", nullptr), QosError);
}

}  // namespace
}  // namespace sbq::qos
