// Copyright 2026 The SPLASH Reproduction Authors.
//
// End-to-end smoke: SPLASH trains on a small synthetic classification
// stream and beats chance; determinism across identically-seeded runs; the
// ring-buffer substrate and trainer replay hold up under a full pipeline.

#include <gtest/gtest.h>

#include "core/splash.h"
#include "datasets/shift_intensity.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"

namespace splash {
namespace {

SplashOptions SmallOptions(SplashMode mode) {
  SplashOptions opts;
  opts.mode = mode;
  opts.augment.feature_dim = 16;
  opts.slim.hidden_dim = 32;
  opts.slim.time_dim = 8;
  opts.slim.k_recent = 5;
  opts.seed = 7;
  return opts;
}

Dataset SmallClassification() {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 150;
  cfg.num_edges = 3000;
  cfg.num_communities = 3;
  cfg.intra_prob = 0.9;
  cfg.query_rate = 0.3;
  cfg.late_arrival_frac = 0.2;
  cfg.seed = 9;
  return GenerateSynthetic(cfg);
}

TEST(SplashSmokeTest, LearnsCommunitiesAboveChance) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashPredictor model(SmallOptions(SplashMode::kForcePositional));
  ASSERT_TRUE(model.Prepare(ds, split).ok());

  TrainerOptions topts;
  topts.epochs = 6;
  topts.batch_size = 64;
  StreamTrainer trainer(topts);
  trainer.Fit(&model, ds, split);
  const EvalResult eval = trainer.Evaluate(&model, ds, split);
  ASSERT_GT(eval.num_queries, 20u);
  // 3 balanced-ish classes: chance is ~0.33. Positional features on a 90%
  // intra-community stream must do clearly better.
  EXPECT_GT(eval.metric, 0.45);
}

TEST(SplashSmokeTest, DeterministicAcrossRuns) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  double metrics[2];
  for (int run = 0; run < 2; ++run) {
    SplashPredictor model(SmallOptions(SplashMode::kForceStructural));
    ASSERT_TRUE(model.Prepare(ds, split).ok());
    TrainerOptions topts;
    topts.epochs = 2;
    topts.batch_size = 64;
    StreamTrainer trainer(topts);
    trainer.Fit(&model, ds, split);
    metrics[run] = trainer.Evaluate(&model, ds, split).metric;
  }
  EXPECT_DOUBLE_EQ(metrics[0], metrics[1]);
}

TEST(SplashSmokeTest, AutoModeSelectsAProcessAndRuns) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashPredictor model(SmallOptions(SplashMode::kAuto));
  ASSERT_TRUE(model.Prepare(ds, split).ok());
  const AugmentationProcess p = model.selected_process();
  EXPECT_TRUE(p == AugmentationProcess::kRandom ||
              p == AugmentationProcess::kPositional ||
              p == AugmentationProcess::kStructural);
  TrainerOptions topts;
  topts.epochs = 1;
  topts.batch_size = 64;
  StreamTrainer trainer(topts);
  const FitResult fit = trainer.Fit(&model, ds, split);
  EXPECT_EQ(fit.epochs_run, 1u);
  EXPECT_GE(fit.best_val_metric, 0.0);
}

TEST(SplashSmokeTest, PublishOnUnchangedModelLeavesScoresBitIdentical) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashPredictor model(SmallOptions(SplashMode::kForceStructural));
  ASSERT_TRUE(model.Prepare(ds, split).ok());
  TrainerOptions topts;
  topts.epochs = 1;
  topts.batch_size = 64;
  StreamTrainer(topts).Fit(&model, ds, split);
  model.SetTraining(false);
  const std::vector<PropertyQuery> probe(ds.queries.end() - 24,
                                         ds.queries.end());
  for (const bool bf16 : {false, true}) {
    model.SetReplicaPrecisionBf16(bf16);
    SplashQueryScratch scratch;
    const Matrix before = model.PredictBatchConst(probe, &scratch);
    model.PrepareForPublish();
    const Matrix& after = model.PredictBatchConst(probe, &scratch);
    ASSERT_EQ(before.rows(), after.rows());
    ASSERT_EQ(before.cols(), after.cols());
    for (size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(before.data()[i], after.data()[i])
          << (bf16 ? "bf16" : "fp32") << " element " << i;
    }
  }
}

TEST(SplashSmokeTest, ShiftIntensityStreamHasUnseenTestNodes) {
  const Dataset ds = GenerateShiftIntensity(90, 6000);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  std::vector<uint8_t> seen(ds.stream.num_nodes(), 0);
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    if (ds.stream[i].time > split.train_end_time) break;
    seen[ds.stream[i].src] = 1;
    seen[ds.stream[i].dst] = 1;
  }
  size_t unseen_queries = 0, test_queries = 0;
  for (const PropertyQuery& q : ds.queries) {
    if (q.time <= split.val_end_time) continue;
    ++test_queries;
    unseen_queries += !seen[q.node];
  }
  ASSERT_GT(test_queries, 50u);
  // Intensity 90 must produce a majority-unseen test period.
  EXPECT_GT(static_cast<double>(unseen_queries) /
                static_cast<double>(test_queries),
            0.4);
}

}  // namespace
}  // namespace splash
