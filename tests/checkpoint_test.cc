// Serialization tests: the binary archive primitives, matrix round-trips,
// component Save/Load, and full SiloFuse checkpoint restore (synthesis from
// a reloaded model must be schema-correct and deterministic given a seed).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/archive.h"
#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "diffusion/gaussian_ddpm.h"
#include "models/autoencoder.h"
#include "tensor/matrix_io.h"

namespace silofuse {
namespace {

// Largest single operator-new request since the last reset, so a test can
// assert that a corrupt length field never turns into a huge allocation.
std::atomic<size_t> g_largest_allocation{0};

}  // namespace
}  // namespace silofuse

// Out of line, so the compiler never pairs an inlined malloc with a free at
// a call site and warns about a mismatch that does not exist.
[[gnu::noinline]] void* operator new(std::size_t size) {
  size_t seen = silofuse::g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !silofuse::g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace silofuse {
namespace {

TEST(ArchiveTest, PrimitiveRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(42);
  writer.WriteI64(-7);
  writer.WriteF32(1.5f);
  writer.WriteF64(-2.25);
  writer.WriteBool(true);
  writer.WriteString("hello");
  writer.WriteDoubleVector({1.0, 2.0});
  BinaryReader reader(&stream);
  EXPECT_EQ(reader.ReadU32().Value(), 42u);
  EXPECT_EQ(reader.ReadI64().Value(), -7);
  EXPECT_EQ(reader.ReadF32().Value(), 1.5f);
  EXPECT_EQ(reader.ReadF64().Value(), -2.25);
  EXPECT_EQ(reader.ReadBool().Value(), true);
  EXPECT_EQ(reader.ReadString().Value(), "hello");
  EXPECT_EQ(reader.ReadDoubleVector().Value(), (std::vector<double>{1.0, 2.0}));
}

TEST(ArchiveTest, TruncatedStreamIsIOError) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(1);
  BinaryReader reader(&stream);
  ASSERT_TRUE(reader.ReadU32().ok());
  EXPECT_EQ(reader.ReadU32().status().code(), StatusCode::kIOError);
}

TEST(ArchiveTest, TagMismatchDetected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteString("alpha");
  BinaryReader reader(&stream);
  EXPECT_FALSE(reader.ExpectTag("beta").ok());
}

TEST(ArchiveTest, CorruptLengthRejected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64(kMaxArchiveVectorLength + 1);  // absurd string length
  BinaryReader reader(&stream);
  EXPECT_FALSE(reader.ReadString().ok());
}

TEST(ArchiveTest, CorruptLengthFailsWithoutAllocatingIt) {
  // 16-byte streams whose length field claims 2^30 elements (8 GiB of
  // doubles): each read must fail having allocated about what the stream
  // held, never what the length claimed.
  auto corrupt_stream = [] {
    auto stream = std::make_unique<std::stringstream>();
    BinaryWriter writer(stream.get());
    writer.WriteU64(uint64_t{1} << 30);
    writer.WriteF64(1.0);
    return stream;
  };
  constexpr size_t kBound = size_t{64} << 20;
  {
    auto stream = corrupt_stream();
    BinaryReader reader(stream.get());
    g_largest_allocation = 0;
    EXPECT_FALSE(reader.ReadDoubleVector().ok());
    EXPECT_LT(g_largest_allocation.load(), kBound);
  }
  {
    auto stream = corrupt_stream();
    BinaryReader reader(stream.get());
    g_largest_allocation = 0;
    EXPECT_FALSE(reader.ReadFloatVector().ok());
    EXPECT_LT(g_largest_allocation.load(), kBound);
  }
  {
    auto stream = corrupt_stream();
    BinaryReader reader(stream.get());
    g_largest_allocation = 0;
    EXPECT_FALSE(reader.ReadString().ok());
    EXPECT_LT(g_largest_allocation.load(), kBound);
  }
}

TEST(ArchiveTest, LargeVectorsStillRoundTrip) {
  // Payloads spanning several read chunks come back intact.
  std::vector<double> big(3 * (1 << 17) + 5);
  for (size_t i = 0; i < big.size(); ++i) big[i] = 0.5 * static_cast<double>(i);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteDoubleVector(big);
  BinaryReader reader(&stream);
  auto back = reader.ReadDoubleVector();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.Value(), big);
}

TEST(MatrixIoTest, RoundTripExact) {
  Rng rng(1);
  Matrix m = Matrix::RandomNormal(7, 5, &rng);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  SaveMatrix(&writer, m);
  BinaryReader reader(&stream);
  auto back = LoadMatrix(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.Value(), m);
}

TEST(MatrixIoTest, EmptyMatrixRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  SaveMatrix(&writer, Matrix());
  BinaryReader reader(&stream);
  auto back = LoadMatrix(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.Value().empty());
}

TEST(SchemaIoTest, RoundTrip) {
  Schema schema({ColumnSpec::Numeric("x"), ColumnSpec::Categorical("c", 9)});
  std::stringstream stream;
  BinaryWriter writer(&stream);
  schema.Save(&writer);
  BinaryReader reader(&stream);
  auto back = Schema::Load(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.Value() == schema);
}

TEST(MixedEncoderIoTest, RestoredEncoderEncodesIdentically) {
  Table data = GeneratePaperDataset("loan", 200, 1).Value();
  MixedEncoder original(NumericScaling::kQuantileNormal);
  ASSERT_TRUE(original.Fit(data).ok());
  std::stringstream stream;
  BinaryWriter writer(&stream);
  original.Save(&writer);
  BinaryReader reader(&stream);
  MixedEncoder restored;
  ASSERT_TRUE(restored.Load(&reader).ok());
  EXPECT_EQ(restored.encoded_width(), original.encoded_width());
  EXPECT_EQ(restored.scaling(), NumericScaling::kQuantileNormal);
  EXPECT_EQ(restored.Encode(data), original.Encode(data));
}

TEST(AutoencoderIoTest, RestoredAutoencoderMatchesOriginal) {
  Rng rng(2);
  Table data = GeneratePaperDataset("loan", 300, 2).Value();
  AutoencoderConfig config;
  config.hidden_dim = 32;
  auto ae = TabularAutoencoder::Create(data, config, &rng).Value();
  ASSERT_TRUE(ae->Train(data, 150, 64, &rng).ok());
  std::stringstream stream;
  BinaryWriter writer(&stream);
  ae->Save(&writer);
  BinaryReader reader(&stream);
  auto restored = TabularAutoencoder::LoadFrom(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value()->latent_dim(), ae->latent_dim());
  // Encodings are bit-identical.
  EXPECT_EQ(restored.Value()->EncodeTable(data), ae->EncodeTable(data));
}

TEST(GaussianDdpmIoTest, RestoredModelSamplesIdentically) {
  Rng rng(3);
  GaussianDdpmConfig config;
  config.data_dim = 4;
  config.hidden_dim = 32;
  config.num_layers = 4;
  config.dropout = 0.0f;
  GaussianDdpm ddpm(config, &rng);
  Matrix z0 = Matrix::RandomNormal(128, 4, &rng);
  for (int s = 0; s < 50; ++s) ddpm.TrainStep(z0, &rng);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  ddpm.Save(&writer);
  BinaryReader reader(&stream);
  auto restored = GaussianDdpm::LoadFrom(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Rng rng_a(9), rng_b(9);
  EXPECT_EQ(ddpm.Sample(10, 5, &rng_a, 0.0),
            restored.Value()->Sample(10, 5, &rng_b, 0.0));
}

class SiloFuseCheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/silofuse.ckpt";
};

TEST_F(SiloFuseCheckpointTest, SaveLoadSynthesizeRoundTrip) {
  Table data = GeneratePaperDataset("loan", 300, 3).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 80;
  options.base.diffusion_train_steps = 120;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 3;
  SiloFuse model(options);
  Rng rng(4);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path_).ok());

  auto restored = SiloFuse::LoadCheckpoint(path_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value()->num_clients(), 3);
  EXPECT_EQ(restored.Value()->total_latent_dim(), model.total_latent_dim());

  // Same seed -> identical synthetic output from original and restored.
  Rng rng_a(11), rng_b(11);
  auto synth_a = model.Synthesize(40, &rng_a);
  auto synth_b = restored.Value()->Synthesize(40, &rng_b);
  ASSERT_TRUE(synth_a.ok());
  ASSERT_TRUE(synth_b.ok());
  EXPECT_TRUE(synth_a.Value().schema() == data.schema());
  EXPECT_TRUE(synth_b.Value().schema() == data.schema());
  for (int r = 0; r < 40; ++r) {
    for (int c = 0; c < data.num_columns(); ++c) {
      EXPECT_DOUBLE_EQ(synth_a.Value().value(r, c),
                       synth_b.Value().value(r, c));
    }
  }
}

// Serving restores checkpoints from concurrent request paths (model-cache
// misses on two deployments backed by one file, tests, tools); restore must
// be safe to run in parallel and each restored model fully independent.
// Runs under the TSan CI job.
TEST_F(SiloFuseCheckpointTest, ConcurrentRestoreIsIndependent) {
  Table data = GeneratePaperDataset("loan", 200, 7).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 40;
  options.base.diffusion_train_steps = 60;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 2;
  SiloFuse model(options);
  Rng rng(8);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path_).ok());

  constexpr int kThreads = 2;
  std::vector<Result<Table>> outputs(kThreads, Status::Internal("unset"));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &outputs] {
      auto restored = SiloFuse::LoadCheckpoint(path_);
      if (!restored.ok()) {
        outputs[t] = restored.status();
        return;
      }
      Rng synth_rng(21);  // same seed in both threads
      outputs[t] = restored.Value()->Synthesize(30, &synth_rng);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(outputs[t].ok()) << outputs[t].status().ToString();
    EXPECT_TRUE(outputs[t].Value().schema() == data.schema());
  }
  // Same file + same seed -> byte-identical tables from both threads.
  const Table& a = outputs[0].Value();
  const Table& b = outputs[1].Value();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.value(r, c), b.value(r, c));
    }
  }
}

TEST_F(SiloFuseCheckpointTest, ReferenceStatsSurviveCheckpointRoundTrip) {
  Table data = GeneratePaperDataset("loan", 250, 9).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 40;
  options.base.diffusion_train_steps = 60;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 2;
  options.reference_stats_rows = 64;
  SiloFuse model(options);
  Rng rng(10);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  ASSERT_TRUE(model.has_reference_stats());
  ASSERT_TRUE(model.SaveCheckpoint(path_).ok());

  auto restored = SiloFuse::LoadCheckpoint(path_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(restored.Value()->has_reference_stats());
  const ReferenceStats& original = model.reference_stats();
  const ReferenceStats& loaded = restored.Value()->reference_stats();
  EXPECT_TRUE(loaded.schema == data.schema());
  EXPECT_EQ(loaded.training_rows, original.training_rows);
  EXPECT_EQ(loaded.training_rows, 250);
  EXPECT_EQ(loaded.reference_sample.num_rows(), 64);
  ASSERT_EQ(loaded.columns.size(), original.columns.size());
  for (size_t c = 0; c < loaded.columns.size(); ++c) {
    EXPECT_EQ(loaded.columns[c].quantiles, original.columns[c].quantiles);
    EXPECT_EQ(loaded.columns[c].frequencies, original.columns[c].frequencies);
  }
  EXPECT_EQ(loaded.associations, original.associations);
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < data.num_columns(); ++c) {
      EXPECT_EQ(loaded.reference_sample.value(r, c),
                original.reference_sample.value(r, c));
    }
  }
}

// Backward compatibility: reference_stats_rows = 0 writes the exact
// pre-ReferenceStats checkpoint format (no trailing section), which stands
// in for checkpoints produced before the section existed. It must load and
// synthesize, just with no reference statistics for the auditor.
TEST_F(SiloFuseCheckpointTest, PreReferenceStatsCheckpointStillLoads) {
  Table data = GeneratePaperDataset("loan", 200, 12).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 40;
  options.base.diffusion_train_steps = 60;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 2;
  options.reference_stats_rows = 0;  // old wire format, byte for byte
  SiloFuse model(options);
  Rng rng(13);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  EXPECT_FALSE(model.has_reference_stats());
  ASSERT_TRUE(model.SaveCheckpoint(path_).ok());

  auto restored = SiloFuse::LoadCheckpoint(path_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(restored.Value()->has_reference_stats());
  Rng synth_rng(14);
  auto synth = restored.Value()->Synthesize(20, &synth_rng);
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();
  EXPECT_TRUE(synth.Value().schema() == data.schema());
}

std::vector<std::string> DirectoryEntries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// SaveCheckpoint goes through a temporary file that is fsync'ed and renamed
// over the target, so a hot-reloading reader never sees a half-written
// checkpoint and a failed save never damages the previous one.
TEST_F(SiloFuseCheckpointTest, SaveIsAtomicAndLeavesNoTemporaryFile) {
  const std::string dir =
      ::testing::TempDir() + "/atomic_save_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string path = dir + "/model.ckpt";
  Table data = GeneratePaperDataset("loan", 200, 12).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 20;
  options.base.diffusion_train_steps = 20;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 2;
  SiloFuse model(options);
  Rng rng(13);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());
  EXPECT_EQ(DirectoryEntries(dir), std::vector<std::string>{"model.ckpt"});
  const std::string saved = FileBytes(path);
  ASSERT_GT(saved.size(), 1024u);

  // Fail the next save half way through its write: with the file-size limit
  // below the checkpoint size, write(2) returns EFBIG (SIGXFSZ ignored). An
  // in-place writer would leave a truncated target behind.
  struct rlimit limit = {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &limit), 0);
  const struct rlimit unlimited = limit;
  ASSERT_TRUE(limit.rlim_max == RLIM_INFINITY ||
              limit.rlim_max > saved.size() / 2);
  limit.rlim_cur = saved.size() / 2;
  auto previous_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limit), 0);
  const Status failed = model.SaveCheckpoint(path);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &unlimited), 0);
  std::signal(SIGXFSZ, previous_handler);
  EXPECT_EQ(failed.code(), StatusCode::kIOError) << failed.ToString();
  EXPECT_TRUE(FileBytes(path) == saved) << "checkpoint bytes changed";
  EXPECT_EQ(DirectoryEntries(dir), std::vector<std::string>{"model.ckpt"});

  // A save after the failure succeeds and still leaves a single file.
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());
  EXPECT_TRUE(FileBytes(path) == saved) << "checkpoint bytes changed";
  EXPECT_EQ(DirectoryEntries(dir), std::vector<std::string>{"model.ckpt"});
  EXPECT_TRUE(SiloFuse::LoadCheckpoint(path).ok());
  std::filesystem::remove_all(dir);
}

TEST_F(SiloFuseCheckpointTest, UnfittedModelCannotBeSaved) {
  SiloFuse model;
  EXPECT_EQ(model.SaveCheckpoint(path_).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SiloFuseCheckpointTest, MissingFileFailsToLoad) {
  auto restored = SiloFuse::LoadCheckpoint("/nonexistent/model.ckpt");
  EXPECT_EQ(restored.status().code(), StatusCode::kIOError);
}

TEST_F(SiloFuseCheckpointTest, CorruptFileFailsToLoad) {
  std::ofstream out(path_, std::ios::binary);
  out << "garbage data, not a checkpoint";
  out.close();
  auto restored = SiloFuse::LoadCheckpoint(path_);
  EXPECT_FALSE(restored.ok());
}

}  // namespace
}  // namespace silofuse
