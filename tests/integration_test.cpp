// End-to-end integration: AnalysisSession driving real workloads — region
// campaigns, pattern discovery in the apps the paper names, the Table II
// error-magnitude dynamics, and Use Case pipelines. (Migrated from the
// removed FlipTracker shim; the session has the same per-app surface with
// shared_ptr snapshots.)
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "model/regression.h"
#include "util/bits.h"

namespace ft {
namespace {

fault::CampaignConfig quick_campaign(std::size_t trials) {
  fault::CampaignConfig cfg;
  cfg.trials = trials;
  cfg.seed = 99;
  return cfg;
}

TEST(Session, GoldenArtifactsAreConsistent) {
  core::AnalysisSession session(apps::build_cg());
  const auto golden = session.golden();
  EXPECT_TRUE(golden->completed());
  const auto tr = session.golden_trace();
  EXPECT_EQ(tr->size(), golden->instructions);
  EXPECT_FALSE(session.region_instances()->empty());
  EXPECT_GT(session.golden_events()->num_locations(), 0u);
  session.invalidate_trace();
  EXPECT_FALSE(session.region_instances()->empty());  // rebuilt lazily
}

TEST(Session, RegionCampaignOnCg) {
  core::AnalysisSession session(apps::build_cg());
  const auto* cg_b = session.app().find_region("cg_b");
  ASSERT_NE(cg_b, nullptr);
  const auto r = session.region_campaign(cg_b->id, 0,
                                         fault::TargetClass::Internal,
                                         quick_campaign(40));
  EXPECT_EQ(r.trials, 40u);
  EXPECT_EQ(r.success + r.failed + r.crashed, r.trials);
  EXPECT_GT(r.population_bits, 0u);
  // The decoded engine reports its work: every trial retires instructions.
  EXPECT_GT(r.instructions_retired, r.trials);
}

TEST(Session, AppCampaignRuns) {
  core::AnalysisSession session(apps::build_lu());
  const auto r = session.app_campaign(quick_campaign(30));
  EXPECT_EQ(r.trials, 30u);
  EXPECT_EQ(r.success + r.failed + r.crashed, r.trials);
}

TEST(Session, PatternRatesCoverAllApps) {
  for (const auto& name : apps::all_app_names()) {
    core::AnalysisSession session(apps::build_app(name));
    const auto rates = session.pattern_rates();
    EXPECT_GT(rates->total_instructions, 0u) << name;
    // Overwrite rate is near 1 for loop-dominated programs (paper: 0.94-1.0).
    EXPECT_GT(rates->of(patterns::PatternKind::DataOverwriting), 0.5) << name;
    // Condition rate lives in a plausible band.
    EXPECT_GT(rates->of(patterns::PatternKind::ConditionalStatement), 0.005)
        << name;
    EXPECT_LT(rates->of(patterns::PatternKind::ConditionalStatement), 0.5)
        << name;
    session.invalidate_trace();
  }
}

TEST(Session, IsHasHighestShiftRate) {
  // Fig. 11 / Table IV: IS is the shift-heavy benchmark.
  core::AnalysisSession is(apps::build_is());
  core::AnalysisSession lu(apps::build_lu());
  const auto ris = is.pattern_rates();
  const auto rlu = lu.pattern_rates();
  EXPECT_GT(ris->of(patterns::PatternKind::Shifting),
            rlu->of(patterns::PatternKind::Shifting));
  EXPECT_GT(ris->of(patterns::PatternKind::Shifting), 0.001);
}

TEST(Session, RegionDddgAndIo) {
  core::AnalysisSession session(apps::build_mg());
  const auto* mg_d = session.app().find_region("mg_d");
  ASSERT_NE(mg_d, nullptr);
  const auto g = session.region_dddg(mg_d->id, 0);
  EXPECT_GT(g->num_nodes(), 100u);
  const auto io = session.region_io(mg_d->id, 0);
  ASSERT_TRUE(io.has_value());
  EXPECT_FALSE(io->inputs.empty());
  EXPECT_FALSE(io->outputs.empty());
}

// --- paper-shaped findings -----------------------------------------------------

TEST(PaperFindings, MgShowsRepeatedAdditionsWithShrinkingError) {
  // Table II: flip a bit of a u[] element; the smoother's accumulations
  // shrink its error magnitude across V-cycle iterations.
  core::AnalysisSession session(apps::build_mg());
  const auto u_idx = session.app().module.find_global("u");
  ASSERT_TRUE(u_idx.has_value());
  const auto& u = session.app().module.global(*u_idx);
  // Element (2,2,3) of the 8^3 fine grid, bit 40 (the paper's bit choice).
  const auto addr = u.addr + ((2 * 8 + 2) * 8 + 3) * 8;
  const auto main_region = session.app().main_region;
  const auto plan =
      vm::FaultPlan::region_input_bit(main_region, 1, addr, 8, 40);
  const auto rep = session.patterns_for(plan);
  EXPECT_TRUE(rep.found(patterns::PatternKind::RepeatedAdditions));
  EXPECT_TRUE(rep.found(patterns::PatternKind::DataOverwriting));
}

TEST(PaperFindings, IsShiftMasksLowKeyBits) {
  core::AnalysisSession session(apps::build_is());
  const auto keys_idx = session.app().module.find_global("key_array");
  ASSERT_TRUE(keys_idx.has_value());
  const auto addr = session.app().module.global(*keys_idx).addr + 37 * 8;
  const auto* is_b = session.app().find_region("is_b");
  ASSERT_NE(is_b, nullptr);
  // Flip bit 1 (inside the 5 shifted-out bits) of one key at is_b entry.
  const auto plan = vm::FaultPlan::region_input_bit(is_b->id, 0, addr, 8, 1);
  const auto rep = session.patterns_for(plan);
  EXPECT_TRUE(rep.found(patterns::PatternKind::Shifting));
  // The fault must also be survivable end to end.
  const auto diff = session.column_diff_with(plan);
  EXPECT_TRUE(diff.faulty_result.completed());
}

TEST(PaperFindings, KmeansConditionalMasksFeatureFault) {
  core::AnalysisSession session(apps::build_kmeans());
  const auto feat_idx = session.app().module.find_global("feature");
  ASSERT_TRUE(feat_idx.has_value());
  const auto addr = session.app().module.global(*feat_idx).addr + 33 * 8;
  const auto* k_c = session.app().find_region("k_c");
  ASSERT_NE(k_c, nullptr);
  // Low-mantissa corruption of one feature: distances barely move, the
  // min-distance conditional picks the same cluster (Fig. 10).
  const auto plan = vm::FaultPlan::region_input_bit(k_c->id, 0, addr, 8, 4);
  const auto rep = session.patterns_for(plan);
  EXPECT_TRUE(rep.found(patterns::PatternKind::ConditionalStatement));
}

TEST(PaperFindings, LuleshDropsDeadHourglassTemporaries) {
  core::AnalysisSession session(apps::build_lulesh());
  const auto hg_idx = session.app().module.find_global("hourgam");
  ASSERT_TRUE(hg_idx.has_value());
  const auto addr = session.app().module.global(*hg_idx).addr + 5 * 8;
  const auto* l_a = session.app().find_region("l_a");
  ASSERT_NE(l_a, nullptr);
  const auto plan = vm::FaultPlan::region_input_bit(l_a->id, 3, addr, 8, 30);
  const auto rep = session.patterns_for(plan);
  // hourgam is rewritten per element and dies after the scatter: the
  // corruption must be eliminated by overwrite or death, and the ACL series
  // must return to zero (the Fig. 7 shape).
  EXPECT_TRUE(rep.found(patterns::PatternKind::DataOverwriting) ||
              rep.found(patterns::PatternKind::DeadCorruptedLocations));
  ASSERT_FALSE(rep.acl.count.empty());
  EXPECT_EQ(rep.acl.count.back(), 0u);
}

TEST(PaperFindings, LuleshIndexCorruptionCrashes) {
  core::AnalysisSession session(apps::build_lulesh());
  const auto nl_idx = session.app().module.find_global("nodelist");
  ASSERT_TRUE(nl_idx.has_value());
  const auto addr = session.app().module.global(*nl_idx).addr + 3 * 8;
  const auto* l_a = session.app().find_region("l_a");
  const auto plan = vm::FaultPlan::region_input_bit(l_a->id, 0, addr, 8, 44);
  const auto diff = session.column_diff_with(plan);
  EXPECT_FALSE(diff.faulty_result.completed());  // segfault analog
}

TEST(UseCase1, HardenedCgImprovesSuccessRate) {
  // Table III shape: DCL+overwrite hardening must not hurt, and with a
  // focused campaign over the sprnvc-era instructions it should help.
  core::AnalysisSession base(apps::build_cg());
  core::AnalysisSession hard(apps::build_cg_hardened({true, false}));
  const auto cfg = quick_campaign(120);
  const auto rb = base.app_campaign(cfg);
  const auto rh = hard.app_campaign(cfg);
  EXPECT_EQ(rb.trials, rh.trials);
  // Allow noise at this trial count, but hardening must not regress badly.
  EXPECT_GE(rh.success_rate(), rb.success_rate() - 0.1);
}

TEST(UseCase2, RatesPlusSrFitWithUsableR2) {
  // Mini version of the Table IV pipeline over four cheap apps.
  const std::vector<std::string> names = {"LU", "BT", "SP", "IS"};
  model::Matrix x(names.size(), patterns::kNumPatterns);
  std::vector<double> y;
  for (std::size_t i = 0; i < names.size(); ++i) {
    core::AnalysisSession session(apps::build_app(names[i]));
    const auto rates = session.pattern_rates();
    for (std::size_t j = 0; j < patterns::kNumPatterns; ++j) {
      x.at(i, j) = rates->rate[j];
    }
    session.invalidate_trace();
    y.push_back(session.app_campaign(quick_campaign(60)).success_rate());
  }
  model::BayesianLinearRegression reg;
  model::RegressionOptions opts;
  opts.prior_precision = 1e-8;  // near-OLS: 4 points interpolate
  reg.fit(x, y, opts);
  EXPECT_GT(reg.r_squared(x, y), 0.9);
}

}  // namespace
}  // namespace ft
