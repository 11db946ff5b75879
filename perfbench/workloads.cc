#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#if defined(__AVX512F__) || defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/rng.h"
#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "diffusion/gaussian_ddpm.h"
#include "distributed/partition.h"
#include "metrics/resemblance.h"
#include "obs/expose.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "serve/server.h"
#include "tensor/gemm.h"

namespace perfbench {
namespace {

using silofuse::Matrix;
using silofuse::Rng;
using silofuse::SamplingParams;
using silofuse::SiloFuse;
using silofuse::SiloFuseOptions;
using silofuse::Table;
using silofuse::serve::SynthesisServer;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload constants. Models use the paper's eight-layer backbone at width
// 256 and its four-client partition.

constexpr int kBackboneWidth = 256;
constexpr int kBackboneLayers = 8;
constexpr int kClients = 4;
constexpr int kTrainBatch = 64;

// Set-up: each dataset is generated, fitted at this budget, checkpointed,
// loaded back and warmed up; repeated, and the median reported.
//
// Set-up and the measured loops of synth_bulk and fit_silos run at one
// thread. At four threads on a shared VM their wall time follows how
// promptly the host schedules every vCPU: one build measured 1.4 s to 4.1 s
// per Fit, and 1.4 s to 2.9 s per bulk call, within minutes, while at one
// thread the spread stayed near 7%. The pool's scaling is measured by the
// runtime.* probes of traced runs, at the runtime's own thread count.
constexpr int kSetupReps = 3;
constexpr int kSetupAeSteps = 30;
constexpr int kSetupDiffusionSteps = 50;

// serve_small: 4-row requests split 70/30 between two deployments, open-loop
// Poisson arrivals at fixed rates. The first rate is the reference: it
// carries the latency metric and kServeReferenceShare of the run; the higher
// rates share the rest and set max_ok_rps.
// On a shared 4-core VM the knee (server plus the blocking senders) moves
// with the host's load, from about 100 req/s in slow stretches to about 250
// in quiet ones; batches also grow with load, which stretches capacity. 80
// sits below the knee and 300 above it in both, so max_ok_rps moves only
// when capacity changes by that step, not with the host.
constexpr int kServeTrainRows = 400;
constexpr int kServeRows = 4;
constexpr double kServeFirstShare = 0.7;
constexpr double kServeRates[] = {80.0, 300.0};
constexpr double kServeReferenceShare = 0.85;
// The latency limit at the supported tail percentile: the server's own
// default SLO objective (obs::SloOptions::latency_objective_ms).
constexpr double kServeLimitMs = 250.0;
constexpr double kServeWantedTail = 0.99;
constexpr double kBacklogSlackMs = 10.0;
constexpr uint64_t kServeCheckEvery = 16;  // sampled for the byte check,
                                           // plus each phase's first request
constexpr int kServeResemblanceRows = 512;
constexpr auto kScrapePeriod = std::chrono::seconds(1);

// synth_bulk: repeated offline Synthesize on the checkpoint's own schedule.
constexpr int kBulkTrainRows = 2000;
constexpr int kBulkRows = 4096;
constexpr int kDeterminismRows = 512;

// fit_silos: Fit on a table large enough that training steps dominate.
constexpr int kFitRows = 4096;
constexpr int kFitAeSteps = 80;
constexpr int kFitDiffusionSteps = 150;
constexpr int kFitResemblanceRows = 1024;

// Traced runs: layer-probe shapes and budgets.
constexpr int kServeGemmRows = 8;  // a coalesced batch of two requests
constexpr double kProbeSeconds = 0.15;
constexpr double kTourSeconds = 3.0;

const SamplingParams kServing{/*steps=*/25, /*eta=*/0.0};

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

uint64_t NameKey(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}

bool TablesEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const auto& ca = a.column_values(c);
    const auto& cb = b.column_values(c);
    if (std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool MatricesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

uint64_t TableDigest(const Table& t) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over shape and bytes
  auto feed = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
  };
  const int shape[2] = {t.num_rows(), t.num_columns()};
  feed(shape, sizeof(shape));
  for (int c = 0; c < t.num_columns(); ++c) {
    const auto& col = t.column_values(c);
    feed(col.data(), col.size() * sizeof(double));
  }
  return h;
}

SiloFuseOptions ModelOptions(int ae_steps, int diffusion_steps) {
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 64;
  options.base.autoencoder_steps = ae_steps;
  options.base.diffusion_train_steps = diffusion_steps;
  options.base.batch_size = kTrainBatch;
  options.base.diffusion.hidden_dim = kBackboneWidth;
  options.base.diffusion.num_layers = kBackboneLayers;
  options.partition.num_clients = kClients;
  return options;
}

/// Median wall time (ms) of `fn` over at least `min_reps` calls and
/// `min_seconds`, after one untimed warm-up call.
template <typename Fn>
double MedianCallMs(Fn&& fn, double min_seconds, int min_reps = 5) {
  fn();
  std::vector<double> ms;
  const auto start = Clock::now();
  while (static_cast<int>(ms.size()) < min_reps ||
         SecondsSince(start) < min_seconds) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

/// Sets the runtime's thread count for a scope and restores it after.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) : previous_(silofuse::NumThreads()) {
    silofuse::SetNumThreads(threads);
  }
  ~ScopedThreads() { silofuse::SetNumThreads(previous_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  const int previous_;
};

/// Single-core FMA throughput: independent vector FMA chains, enough of them
/// to cover the FMA latency.
double PeakGflops1t() {
  constexpr int kChains = 12;
  constexpr int64_t kIters = 4000000;
#if defined(__AVX512F__)
  using V = __m512;
  constexpr int kLanes = 16;
  auto set1 = [](float v) { return _mm512_set1_ps(v); };
  auto fma = [](V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); };
  auto sum = [](V v) {
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, v);
    float s = 0.0f;
    for (float x : lanes) s += x;
    return s;
  };
#elif defined(__FMA__)
  using V = __m256;
  constexpr int kLanes = 8;
  auto set1 = [](float v) { return _mm256_set1_ps(v); };
  auto fma = [](V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); };
  auto sum = [](V v) {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, v);
    float s = 0.0f;
    for (float x : lanes) s += x;
    return s;
  };
#else
  using V = float;
  constexpr int kLanes = 1;
  auto set1 = [](float v) { return v; };
  auto fma = [](V a, V b, V c) { return std::fma(a, b, c); };
  auto sum = [](V v) { return v; };
#endif
  V acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = set1(1.0f + 1e-3f * j);
  const V mul = set1(0.999999f);
  const V add = set1(1e-7f);
  const auto t0 = Clock::now();
  for (int64_t i = 0; i < kIters; ++i) {
    for (int j = 0; j < kChains; ++j) acc[j] = fma(acc[j], mul, add);
  }
  const double seconds = SecondsSince(t0);
  float total = 0.0f;
  for (int j = 0; j < kChains; ++j) total += sum(acc[j]);
  // The accumulators feed the result, so the loop cannot be dropped.
  if (!std::isfinite(total)) return 0.0;
  return 2.0 * kChains * kLanes * static_cast<double>(kIters) / seconds / 1e9;
}

struct GemmShape {
  bool trans_a;
  bool trans_b;
  int m, n, k;
};

/// Median GFLOP/s of Gemm over `shapes` run back to back (one call each).
double GemmGflops(const std::vector<GemmShape>& shapes, Rng* rng) {
  struct Buffers {
    std::vector<float> a, b, c;
  };
  std::vector<Buffers> buffers;
  double flops = 0.0;
  for (const GemmShape& s : shapes) {
    Buffers buf;
    buf.a.resize(static_cast<size_t>(s.m) * s.k);
    buf.b.resize(static_cast<size_t>(s.k) * s.n);
    buf.c.resize(static_cast<size_t>(s.m) * s.n);
    for (float& v : buf.a) v = static_cast<float>(rng->Normal());
    for (float& v : buf.b) v = static_cast<float>(rng->Normal());
    buffers.push_back(std::move(buf));
    flops += 2.0 * s.m * s.n * s.k;
  }
  const double ms = MedianCallMs(
      [&] {
        for (size_t i = 0; i < shapes.size(); ++i) {
          const GemmShape& s = shapes[i];
          Buffers& buf = buffers[i];
          silofuse::Gemm(s.trans_a, s.trans_b, s.m, s.n, s.k, 1.0f,
                         buf.a.data(), s.trans_a ? s.m : s.k, buf.b.data(),
                         s.trans_b ? s.k : s.n, 0.0f, buf.c.data(), s.n);
        }
      },
      kProbeSeconds);
  return flops / (ms * 1e-3) / 1e9;
}

// ---------------------------------------------------------------------------
// Registry deltas: per-layer metrics the program already exports.

struct RegistryDelta {
  silofuse::obs::MetricsSnapshot before;
  silofuse::obs::MetricsSnapshot after;

  void Begin() { before = silofuse::obs::MetricsRegistry::Global().Snapshot(); }
  void End() { after = silofuse::obs::MetricsRegistry::Global().Snapshot(); }

  int64_t Counter(const std::string& name) const {
    auto get = [&name](const silofuse::obs::MetricsSnapshot& s) -> int64_t {
      auto it = s.counters.find(name);
      return it == s.counters.end() ? 0 : it->second;
    };
    return get(after) - get(before);
  }

  silofuse::obs::HistogramSnapshot Histogram(const std::string& name) const {
    silofuse::obs::HistogramSnapshot delta;
    auto it = after.histograms.find(name);
    if (it == after.histograms.end()) return delta;
    delta = it->second;
    auto old = before.histograms.find(name);
    if (old != before.histograms.end() &&
        old->second.bucket_counts.size() == delta.bucket_counts.size()) {
      for (size_t i = 0; i < delta.bucket_counts.size(); ++i) {
        delta.bucket_counts[i] -= old->second.bucket_counts[i];
      }
      delta.count -= old->second.count;
      delta.sum -= old->second.sum;
    }
    return delta;
  }
};

/// The 1/s /metrics scraper that rides along with serving traffic. It is
/// one of the load generator's threads.
class Scraper {
 public:
  Scraper(int port, Tracer* tracer)
      : target_("127.0.0.1:" + std::to_string(port)), tracer_(tracer) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kScrapePeriod, [this] { return stop_; })) {
      lock.unlock();
      bool ok = false;
      {
        ScopedSpan span(tracer_, "obs.scrape");
        auto body = silofuse::obs::HttpGet(target_, "/metrics", 1000);
        ok = body.ok() && body.Value().find("serve_requests") !=
                              std::string::npos;
      }
      lock.lock();
      ++attempted_;
      if (!ok) ++failed_;
    }
  }

  const std::string target_;
  Tracer* tracer_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::thread thread_;  // last: started after the members it reads
};

// ---------------------------------------------------------------------------

struct Deployment {
  std::string name;  // dataset and deployment name
  Table data;
  std::string checkpoint;
  std::unique_ptr<SiloFuse> model;  // loaded from the checkpoint
  int64_t comm_bytes = 0;           // channel bytes of its training round
};

struct SetupResult {
  bool ok = false;
  std::vector<Deployment> deployments;
  std::vector<double> setup_s;  // per rep
  std::vector<double> fit_s;    // per rep, summed over deployments
  int64_t comm_bytes = 0;       // summed over deployments
};

struct ServeTraffic {
  std::vector<std::string> deployments;  // the first gets kServeFirstShare
  std::vector<SiloFuse*> models;         // solo references, same order
};

struct ServePhase {
  RateResult result;
  double seconds = 0.0;
  int64_t rows_ok = 0;
};

class Bench {
 public:
  Bench(const RunConfig& config, Tracer* tracer, Report* report)
      : config_(config),
        tracer_(tracer),
        report_(report),
        default_threads_(silofuse::NumThreads()) {}

  void Run();

 private:
  void ServeSmall();
  void SynthBulk();
  void FitSilos();

  SetupResult SetUp(const std::vector<std::pair<std::string, int>>& datasets);
  bool SetUpOne(const std::string& dataset, int rows, Deployment* out,
                double* fit_s);

  silofuse::Result<Table> TracedSynthesize(SiloFuse* model, int rows,
                                           Rng* rng,
                                           const SamplingParams& params);
  bool TracedFit(const Table& data, const SiloFuseOptions& options, Rng* rng,
                 std::unique_ptr<silofuse::Coordinator>* coordinator);

  std::unique_ptr<SynthesisServer> StartServer(
      const std::vector<Deployment>& deployments);
  ServePhase RunServePhase(SynthesisServer* server,
                           const ServeTraffic& traffic, double rate,
                           double seconds, uint64_t phase_seed,
                           bool traced_checks);

  void LayerProbes(Deployment* deployment);
  void ServeTour(std::vector<Deployment>* deployments);
  void ReportServeLayers(const RegistryDelta& delta, SynthesisServer* server,
                         int64_t requests, int64_t flight_events,
                         double batch_rows_mean);
  void ReportRuntimeLayers(const RegistryDelta& delta);
  void ReportCommon(const SetupResult& setup, double resemblance);
  double Resemblance(const Table& real, const Table& synth);

  /// End-to-end metrics go out on untraced runs, per-layer ones on traced.
  void E2E(const std::string& name, double value, const std::string& unit) {
    if (!config_.trace) report_->Set(name, value, unit);
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    if (config_.trace) report_->Set(name, value, unit);
  }

  std::string Path(const std::string& file) const {
    return (std::filesystem::path(config_.out_dir) / file).string();
  }

  const RunConfig& config_;
  Tracer* tracer_;
  Report* report_;
  const int default_threads_;  // the runtime's own choice, NumThreads()
  std::vector<double> load_ms_;            // LoadCheckpoint, every set-up
  std::vector<double> channel_messages_;   // per traced training round
  int64_t traced_rows_ = 0;                // rows through TracedSynthesize
};

bool Bench::SetUpOne(const std::string& dataset, int rows, Deployment* out,
                     double* fit_s) {
  auto data = [&] {
    ScopedSpan span(tracer_, "data.generate");
    return silofuse::GeneratePaperDataset(dataset, rows,
                                          Mix(config_.seed, NameKey(dataset)));
  }();
  if (!data.ok()) {
    report_->Check("generate " + dataset, false);
    return false;
  }
  SiloFuse model(ModelOptions(kSetupAeSteps, kSetupDiffusionSteps));
  Rng rng(Mix(config_.seed, 17));
  const auto fit_start = Clock::now();
  silofuse::Status fit;
  {
    ScopedSpan span(tracer_, "core.fit");
    fit = model.Fit(data.Value(), &rng);
  }
  *fit_s += SecondsSince(fit_start);
  if (!fit.ok()) {
    report_->Check("fit " + dataset + ": " + fit.ToString(), false);
    return false;
  }
  out->name = dataset;
  out->comm_bytes = model.channel().total_bytes();
  out->checkpoint = Path(dataset + ".ckpt");
  {
    ScopedSpan span(tracer_, "core.save_checkpoint");
    if (!model.SaveCheckpoint(out->checkpoint).ok()) {
      report_->Check("save checkpoint " + dataset, false);
      return false;
    }
  }
  {
    const auto t0 = Clock::now();
    ScopedSpan span(tracer_, "core.load_checkpoint");
    auto loaded = SiloFuse::LoadCheckpoint(out->checkpoint);
    if (!loaded.ok()) {
      report_->Check("load checkpoint " + dataset, false);
      return false;
    }
    out->model = std::move(loaded).Value();
    load_ms_.push_back(MsSince(t0));
  }
  Rng warm(1);
  if (!out->model->Synthesize(kServeRows, &warm, kServing).ok()) {
    report_->Check("warm-up synthesis " + dataset, false);
    return false;
  }
  out->data = std::move(data).Value();
  return true;
}

SetupResult Bench::SetUp(
    const std::vector<std::pair<std::string, int>>& datasets) {
  ScopedThreads one(1);
  SetupResult setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::vector<Deployment> deployments(datasets.size());
    double fit_s = 0.0;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < datasets.size(); ++i) {
      if (!SetUpOne(datasets[i].first, datasets[i].second, &deployments[i],
                    &fit_s)) {
        return setup;
      }
    }
    setup.setup_s.push_back(SecondsSince(t0));
    setup.fit_s.push_back(fit_s);
    setup.deployments = std::move(deployments);
  }
  for (const Deployment& d : setup.deployments) {
    setup.comm_bytes += d.comm_bytes;
  }
  std::fprintf(stderr, "setup: median %.3f s over %d reps\n",
               Median(setup.setup_s), kSetupReps);
  setup.ok = true;
  return setup;
}

silofuse::Result<Table> Bench::TracedSynthesize(SiloFuse* model, int rows,
                                                Rng* rng,
                                                const SamplingParams& params) {
  // Algorithm 2 exactly as SiloFuse::Synthesize runs it, one public layer
  // call at a time.
  const int steps =
      params.steps > 0 ? params.steps : model->options().base.inference_steps;
  const double eta =
      params.eta >= 0.0 ? params.eta : model->options().base.sampling_eta;
  ScopedSpan synth(tracer_, "core.synthesize");
  traced_rows_ += rows;
  Matrix z;
  {
    ScopedSpan span(tracer_, "distributed.sample_latents");
    SF_ASSIGN_OR_RETURN(z, model->coordinator()->SampleLatents(rows, steps,
                                                                eta, rng));
  }
  std::vector<Table> parts;
  int offset = 0;
  for (int i = 0; i < model->num_clients(); ++i) {
    silofuse::SiloClient* client = model->client(i);
    Matrix z_i = z.SliceCols(offset, client->latent_dim());
    offset += client->latent_dim();
    {
      ScopedSpan span(tracer_, "distributed.send");
      model->mutable_channel()->SendMatrix("coordinator", client->party_name(),
                                           z_i, "synthetic_latents");
    }
    ScopedSpan span(tracer_, "distributed.decode");
    parts.push_back(client->Decode(z_i, rng, /*sample=*/true));
  }
  ScopedSpan span(tracer_, "core.reassemble");
  return silofuse::ReassembleColumns(parts, model->partition());
}

bool Bench::TracedFit(const Table& data, const SiloFuseOptions& options,
                      Rng* rng,
                      std::unique_ptr<silofuse::Coordinator>* coordinator) {
  // Algorithm 1 exactly as SiloFuse::Fit runs it (same rng forks, in the
  // same order), one public layer call at a time.
  ScopedSpan fit(tracer_, "core.fit");
  auto partition = silofuse::PartitionColumns(data.num_columns(),
                                              options.partition);
  if (!partition.ok()) return false;
  silofuse::AutoencoderConfig client_config = options.base.autoencoder;
  const int clients = static_cast<int>(partition.Value().size());
  client_config.hidden_dim = std::max(options.min_client_hidden,
                                      client_config.hidden_dim / clients);
  std::vector<std::unique_ptr<silofuse::SiloClient>> silos;
  for (int i = 0; i < clients; ++i) {
    Rng client_rng = rng->Fork();
    auto client = silofuse::SiloClient::Create(
        i, data.SelectColumns(partition.Value()[i]), client_config,
        &client_rng);
    if (!client.ok()) return false;
    ScopedSpan span(tracer_, "distributed.train_autoencoder");
    if (!client.Value()
             ->TrainAutoencoder(options.base.autoencoder_steps,
                                options.base.batch_size, &client_rng)
             .ok()) {
      return false;
    }
    silos.push_back(std::move(client).Value());
  }
  silofuse::Channel channel;
  channel.BeginRound();
  std::vector<Matrix> latents;
  for (auto& client : silos) {
    ScopedSpan span(tracer_, "distributed.upload_latents");
    latents.push_back(client->ComputeLatents());
    channel.SendMatrix(client->party_name(), "coordinator", latents.back(),
                       "training_latents");
  }
  channel_messages_.push_back(static_cast<double>(channel.message_count()));
  const Matrix z = Matrix::ConcatCols(latents);
  *coordinator =
      std::make_unique<silofuse::Coordinator>(options.base.diffusion);
  Rng coord_rng = rng->Fork();
  ScopedSpan span(tracer_, "distributed.train_on_latents");
  return (*coordinator)
      ->TrainOnLatents(z, options.base.diffusion_train_steps,
                       options.base.batch_size, &coord_rng)
      .ok();
}

std::unique_ptr<SynthesisServer> Bench::StartServer(
    const std::vector<Deployment>& deployments) {
  // The production observability set: SLO monitoring, online quality audit
  // at its default cadence and the introspection plane.
  silofuse::serve::ServeOptions options;
  options.enable_slo = true;
  options.enable_audit = true;
  options.enable_introspection = true;
  options.introspection_port = 0;
  auto server = std::make_unique<SynthesisServer>(options);
  for (const Deployment& d : deployments) {
    if (!server->RegisterDeployment(d.name, d.checkpoint).ok()) {
      report_->Check("register deployment " + d.name, false);
      return nullptr;
    }
    silofuse::serve::ServeRequest warm;
    warm.deployment = d.name;
    warm.rows = kServeRows;
    warm.seed = 1;
    if (!server->Synthesize(warm).ok()) {
      report_->Check("warm-up request " + d.name, false);
      return nullptr;
    }
  }
  if (server->IntrospectionPort() < 0) {
    report_->Check("introspection endpoint is up", false);
    return nullptr;
  }
  return server;
}

ServePhase Bench::RunServePhase(SynthesisServer* server,
                                const ServeTraffic& traffic, double rate,
                                double seconds, uint64_t phase_seed,
                                bool traced_checks) {
  const std::vector<double> schedule =
      PoissonSchedule(phase_seed, rate, seconds);
  const size_t n = schedule.size();
  auto deployment_of = [&](size_t i) -> size_t {
    if (traffic.deployments.size() < 2) return 0;
    const double u = static_cast<double>(Mix(phase_seed, 2 * i) % 1000000) / 1e6;
    return u < kServeFirstShare ? 0 : 1;
  };
  auto seed_of = [&](size_t i) { return Mix(phase_seed, 2 * i + 1); };
  auto checked = [&](size_t i) {
    return i == 0 || Mix(phase_seed ^ 0xC0FFEE, i) % kServeCheckEvery == 0;
  };
  std::vector<Table> kept(n);
  const uint64_t id_base = (phase_seed & 0xFFFF) << 20;
  // Senders plus the scraper thread stay within nproc.
  const int senders = std::max(1, Nproc() - 1);
  SteadyClock clock;
  const std::vector<SendRecord> records = RunOpenLoop(
      schedule, senders, &clock, [&](size_t i) {
        silofuse::serve::ServeRequest request;
        request.deployment = traffic.deployments[deployment_of(i)];
        request.rows = kServeRows;
        request.seed = seed_of(i);
        ScopedSpan span(tracer_, "serve.request", id_base + i + 1);
        auto response = server->Synthesize(request);
        if (!response.ok() || response.Value().num_rows() != kServeRows) {
          return false;
        }
        if (checked(i)) kept[i] = std::move(response).Value();
        return true;
      });

  ServePhase phase;
  phase.seconds = seconds;
  phase.result = SummarizeRate(rate, records, kServeWantedTail, kBacklogSlackMs);
  int64_t mismatches = 0;
  int64_t compared = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!records[i].ok) continue;
    phase.rows_ok += kServeRows;
    if (!checked(i)) continue;
    // The coalescing contract: a served response equals a solo synthesis
    // with the same seed on the same checkpoint.
    Rng rng(seed_of(i));
    SiloFuse* model = traffic.models[deployment_of(i)];
    auto solo = traced_checks
                    ? TracedSynthesize(model, kServeRows, &rng, kServing)
                    : model->Synthesize(kServeRows, &rng, kServing);
    ++compared;
    if (!solo.ok() || !TablesEqual(solo.Value(), kept[i])) ++mismatches;
  }
  report_->Count(phase.result.attempted, phase.result.failed);
  report_->Check("serve @" + std::to_string(static_cast<int>(rate)) +
                     " rps: " + std::to_string(compared) +
                     " sampled responses equal solo synthesis",
                 mismatches == 0);
  // On stdout, so the per-rate report lands in result.json too.
  const RateResult& r = phase.result;
  std::printf("serve %6.1f rps: %lld sent, %lld failed, p50 %.2f ms, p%g "
              "%.2f ms, lateness p50 %.3f max %.2f ms%s\n",
              rate, static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.p50_ms, r.tail_q * 100,
              r.tail_ms, r.lateness_p50_ms, r.lateness_max_ms,
              r.backlog_grows ? ", backlog grows" : "");
  std::fflush(stdout);
  return phase;
}

double Bench::Resemblance(const Table& real, const Table& synth) {
  Rng rng(Mix(config_.seed, 31));
  ScopedSpan span(tracer_, "metrics.resemblance");
  auto score = silofuse::ComputeResemblance(real, synth, &rng);
  report_->Check("resemblance computed", score.ok());
  return score.ok() ? score.Value().overall : 0.0;
}

void Bench::ReportCommon(const SetupResult& setup, double resemblance) {
  E2E("setup_s", Median(setup.setup_s), "s");
  E2E("comm_mb", static_cast<double>(setup.comm_bytes) / 1e6, "MB");
  E2E("resemblance", resemblance, "score");
  E2E("peak_rss_mb", PeakRssMb(), "MB");
  Layer("core.load_checkpoint_ms", Median(load_ms_), "ms");
}

void Bench::ReportServeLayers(const RegistryDelta& delta,
                              SynthesisServer* server, int64_t requests,
                              int64_t flight_events, double batch_rows_mean) {
  Layer("serve.queue_ms.p99", delta.Histogram("serve.queue_ms").Quantile(0.99),
        "ms");
  Layer("serve.linger_ms.p50",
        delta.Histogram("serve.linger_ms").Quantile(0.5), "ms");
  const auto sample = delta.Histogram("serve.sample_ms");
  Layer("serve.sample_ms.p50", sample.Quantile(0.5), "ms");
  Layer("serve.sample_ms.p99", sample.Quantile(0.99), "ms");
  Layer("serve.decode_ms.p50",
        delta.Histogram("serve.decode_ms").Quantile(0.5), "ms");
  const auto batch = delta.Histogram("serve.batch.requests");
  Layer("serve.batch_requests.mean",
        batch.count > 0 ? batch.sum / static_cast<double>(batch.count) : 0.0,
        "requests");
  Layer("serve.rejected", static_cast<double>(delta.Counter("serve.rejected")),
        "count");
  const double hits = static_cast<double>(delta.Counter("serve.cache.hits"));
  const double misses =
      static_cast<double>(delta.Counter("serve.cache.misses"));
  Layer("serve.cache.hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  int64_t audits = 0;
  for (const auto& row : server->DebugSnapshot().audit) audits += row.audits;
  Layer("obs.audits", static_cast<double>(audits), "count");
  const auto stats = StatsByName(tracer_->Spans());
  const auto scrapes = stats.find("obs.scrape");
  Layer("obs.scrape_ms.p50",
        scrapes == stats.end() ? 0.0 : Median(scrapes->second.total_ms), "ms");
  Layer("obs.flight_events_per_request",
        requests > 0 ? static_cast<double>(flight_events) /
                           static_cast<double>(requests)
                     : 0.0,
        "events");
  // Backbone evaluations per served row: the 25 steps of a pass are shared
  // by every row the pass coalesced.
  Layer("diffusion.nfe_per_row",
        batch_rows_mean > 0 ? kServing.steps / batch_rows_mean : 0.0,
        "nfe/row");
}

void Bench::ReportRuntimeLayers(const RegistryDelta& delta) {
  Layer("runtime.pool.queue_wait_us.p50",
        delta.Histogram("runtime.pool.queue_wait_us").Quantile(0.5), "us");
  const double regions = static_cast<double>(delta.Counter("runtime.regions"));
  Layer("runtime.chunks_per_region",
        regions > 0
            ? static_cast<double>(delta.Counter("runtime.chunks")) / regions
            : 0.0,
        "chunks");
}

void Bench::ServeSmall() {
  SetupResult setup = SetUp({{"loan", kServeTrainRows},
                             {"adult", kServeTrainRows}});
  if (!setup.ok) return;
  std::unique_ptr<SynthesisServer> server = StartServer(setup.deployments);
  if (!server) return;
  const ServeTraffic traffic{{"loan", "adult"},
                             {setup.deployments[0].model.get(),
                              setup.deployments[1].model.get()}};
  Scraper scraper(server->IntrospectionPort(), tracer_);

  const int rates = static_cast<int>(std::size(kServeRates));
  if (!config_.trace) {
    const ServePhase reference = RunServePhase(
        server.get(), traffic, kServeRates[0],
        config_.seconds * kServeReferenceShare, Mix(config_.seed, 100),
        /*traced_checks=*/false);
    std::vector<RateResult> sweep = {reference.result};
    for (int r = 1; r < rates && RateOk(sweep.back(), kServeLimitMs); ++r) {
      sweep.push_back(RunServePhase(server.get(), traffic, kServeRates[r],
                                    config_.seconds *
                                        (1.0 - kServeReferenceShare) /
                                        (rates - 1),
                                    Mix(config_.seed, 100 + r), false)
                          .result);
    }
    // Request latency (median and tail) is printed with each rate above but
    // not reported: on a shared 4-core VM its run-to-run spread over ten
    // seeds reached 28% for the median and 30% for the p99, beyond the
    // largest bound (25%) a regression gate may use. max_ok_rps carries the
    // latency limit instead.
    E2E("max_ok_rps", MaxOkRate(sweep, kServeLimitMs), "1/s");
    E2E("rows_per_s",
        static_cast<double>(reference.rows_ok) / reference.seconds, "rows/s");
  } else {
    // Traced: the reference rate twice, untraced then traced; the per-layer
    // numbers come from the traced phase, and the two give the overhead.
    const double third = config_.seconds / 3.0;
    Tracer* const tracer = tracer_;
    Tracer off(false);
    tracer_ = &off;
    const ServePhase plain = RunServePhase(server.get(), traffic,
                                           kServeRates[0], third,
                                           Mix(config_.seed, 100), false);
    tracer_ = tracer;
    RegistryDelta delta;
    const int64_t flight0 =
        silofuse::obs::FlightRecorder::Global().TotalRecorded();
    delta.Begin();
    const ServePhase traced = RunServePhase(server.get(), traffic,
                                            kServeRates[0], third,
                                            Mix(config_.seed, 100), true);
    delta.End();
    const auto rows = delta.Histogram("serve.batch.rows");
    ReportServeLayers(
        delta, server.get(), traced.result.attempted,
        silofuse::obs::FlightRecorder::Global().TotalRecorded() - flight0,
        rows.count > 0 ? rows.sum / static_cast<double>(rows.count) : 0.0);
    Layer("trace.overhead_ratio",
          traced.result.p50_ms / std::max(plain.result.p50_ms, 1e-9), "ratio");
  }
  scraper.Stop();
  report_->Count(scraper.attempted(), scraper.failed());

  Rng rng(Mix(config_.seed, 200));
  auto sample = setup.deployments[0].model->Synthesize(kServeResemblanceRows,
                                                        &rng, kServing);
  report_->Check("resemblance sample synthesized", sample.ok());
  const double resemblance =
      sample.ok() ? Resemblance(setup.deployments[0].data, sample.Value())
                  : 0.0;
  E2E("fit_s", Median(setup.fit_s), "s");
  ReportCommon(setup, resemblance);
  if (config_.trace) LayerProbes(&setup.deployments[0]);
}

void Bench::SynthBulk() {
  SetupResult setup = SetUp({{"loan", kBulkTrainRows}});
  if (!setup.ok) return;
  Deployment& deployment = setup.deployments[0];
  SiloFuse* model = deployment.model.get();

  // Determinism contract: one slice, same digest at 1 thread and N.
  {
    uint64_t digest[2] = {0, 1};
    for (int pass = 0; pass < 2; ++pass) {
      ScopedThreads threads(pass == 0 ? 1 : default_threads_);
      Rng rng(Mix(config_.seed, 300));
      auto out = model->Synthesize(kDeterminismRows, &rng);
      if (out.ok()) digest[pass] = TableDigest(out.Value());
    }
    report_->Check("bulk slice digest equal at 1 and " +
                       std::to_string(default_threads_) + " threads",
                   digest[0] == digest[1]);
  }

  ScopedThreads one(1);  // see the set-up constants
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  Table first;
  int64_t calls = 0;
  int64_t failed = 0;
  const auto start = Clock::now();
  while (calls < 2 || SecondsSince(start) < config_.seconds) {
    // Traced runs alternate a plain call and a traced replay of the same
    // seed: the pair checks the replay and measures the tracing overhead.
    const bool replay = config_.trace && calls % 2 == 1;
    Rng rng(Mix(config_.seed, 400 + (replay ? calls - 1 : calls)));
    const auto t0 = Clock::now();
    auto out = replay ? TracedSynthesize(model, kBulkRows, &rng, {})
                      : model->Synthesize(kBulkRows, &rng);
    (replay ? traced_ms : plain_ms).push_back(MsSince(t0));
    ++calls;
    if (!out.ok() || out.Value().num_rows() != kBulkRows) {
      ++failed;
      continue;
    }
    if (calls == 1) {
      first = std::move(out).Value();
    } else if (replay && calls == 2) {
      report_->Check("traced replay equals SiloFuse::Synthesize",
                     TablesEqual(first, out.Value()));
    }
  }
  report_->Count(calls, failed);
  std::fprintf(stderr, "bulk: %lld calls of %d rows, median %.1f ms\n",
               static_cast<long long>(calls), kBulkRows, Median(plain_ms));

  const double median_ms = Median(plain_ms);
  E2E("max_ok_rps", 1e3 / median_ms, "1/s");
  E2E("rows_per_s", kBulkRows / (median_ms / 1e3), "rows/s");
  E2E("fit_s", Median(setup.fit_s), "s");
  const double resemblance =
      first.num_rows() > 0 ? Resemblance(deployment.data, first) : 0.0;
  ReportCommon(setup, resemblance);
  if (config_.trace) {
    Layer("trace.overhead_ratio", Median(traced_ms) / median_ms, "ratio");
    ScopedThreads all(default_threads_);
    LayerProbes(&deployment);
    ServeTour(&setup.deployments);
  }
}

void Bench::FitSilos() {
  SetupResult setup = SetUp({{"adult", kFitRows}});
  if (!setup.ok) return;
  const Table& data = setup.deployments[0].data;
  const SiloFuseOptions options =
      ModelOptions(kFitAeSteps, kFitDiffusionSteps);

  std::vector<double> plain_s;
  std::vector<double> traced_s;
  int64_t comm_bytes = 0;
  double resemblance = 0.0;
  {
    ScopedThreads one(1);  // see the set-up constants
    std::unique_ptr<SiloFuse> first;
    int64_t fits = 0;
    int64_t failed = 0;
    const auto start = Clock::now();
    while (fits < 2 || SecondsSince(start) < config_.seconds) {
      const bool replay = config_.trace && fits % 2 == 1;
      Rng rng(Mix(config_.seed, 500 + (replay ? fits - 1 : fits)));
      const auto t0 = Clock::now();
      bool ok = false;
      if (replay) {
        // Traced replay of the previous fit's seed through the layer API;
        // its coordinator must sample the same latents as SiloFuse::Fit's.
        std::unique_ptr<silofuse::Coordinator> coordinator;
        ok = TracedFit(data, options, &rng, &coordinator);
        traced_s.push_back(SecondsSince(t0));
        if (ok && fits == 1 && first) {
          Rng a(7);
          Rng b(7);
          auto want = first->coordinator()->SampleLatents(64, 25, 1.0, &a);
          auto got = coordinator->SampleLatents(64, 25, 1.0, &b);
          report_->Check("traced fit replay equals SiloFuse::Fit",
                         want.ok() && got.ok() &&
                             MatricesEqual(want.Value(), got.Value()));
        }
      } else {
        auto model = std::make_unique<SiloFuse>(options);
        ok = model->Fit(data, &rng).ok();
        plain_s.push_back(SecondsSince(t0));
        comm_bytes = model->channel().total_bytes();
        if (ok && !first) first = std::move(model);
      }
      ++fits;
      if (!ok) ++failed;
    }
    report_->Count(fits, failed);
    std::fprintf(stderr, "fit: %lld fits of %d rows, median %.3f s\n",
                 static_cast<long long>(fits), data.num_rows(),
                 Median(plain_s));
    if (first) {
      Rng rng(Mix(config_.seed, 600));
      auto sample = config_.trace
                        ? TracedSynthesize(first.get(), kFitResemblanceRows,
                                           &rng, {})
                        : first->Synthesize(kFitResemblanceRows, &rng);
      report_->Check("resemblance sample synthesized", sample.ok());
      if (sample.ok()) resemblance = Resemblance(data, sample.Value());
    }
  }

  const double fit_s = Median(plain_s);
  E2E("fit_s", fit_s, "s");
  E2E("max_ok_rps", 1.0 / fit_s, "1/s");
  E2E("rows_per_s", static_cast<double>(data.num_rows()) / fit_s, "rows/s");
  setup.comm_bytes = comm_bytes;  // the measured fit's training round
  ReportCommon(setup, resemblance);
  if (config_.trace) {
    Layer("trace.overhead_ratio", Median(traced_s) / fit_s, "ratio");
    LayerProbes(&setup.deployments[0]);
    ServeTour(&setup.deployments);
  }
}

void Bench::ServeTour(std::vector<Deployment>* deployments) {
  // Workloads that do not serve still report the serving layers, from a
  // short burst at the reference rate on their own checkpoint.
  std::unique_ptr<SynthesisServer> server = StartServer(*deployments);
  if (!server) return;
  Deployment& d = deployments->front();
  const ServeTraffic traffic{{d.name}, {d.model.get()}};
  Scraper scraper(server->IntrospectionPort(), tracer_);
  RegistryDelta delta;
  const int64_t flight0 =
      silofuse::obs::FlightRecorder::Global().TotalRecorded();
  delta.Begin();
  const ServePhase phase = RunServePhase(server.get(), traffic, kServeRates[0],
                                         kTourSeconds, Mix(config_.seed, 700),
                                         /*traced_checks=*/false);
  delta.End();
  scraper.Stop();
  report_->Count(scraper.attempted(), scraper.failed());
  const auto rows = delta.Histogram("serve.batch.rows");
  ReportServeLayers(
      delta, server.get(), phase.result.attempted,
      silofuse::obs::FlightRecorder::Global().TotalRecorded() - flight0,
      rows.count > 0 ? rows.sum / static_cast<double>(rows.count) : 0.0);
}

void Bench::LayerProbes(Deployment* deployment) {
  SiloFuse* model = deployment->model.get();
  Rng rng(Mix(config_.seed, 800));

  // Training layers, for workloads whose measured loop does not train.
  if (channel_messages_.empty()) {
    ScopedThreads one(1);  // as fit_silos trains
    std::unique_ptr<silofuse::Coordinator> coordinator;
    Rng fit_rng(Mix(config_.seed, 17));
    report_->Check("traced training round",
                   TracedFit(deployment->data,
                             ModelOptions(kSetupAeSteps, kSetupDiffusionSteps),
                             &fit_rng, &coordinator));
  }

  // Spans recorded so far: core, distributed.
  const auto stats = StatsByName(tracer_->Spans());
  auto median_total = [&stats](const std::string& name) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : Median(it->second.total_ms);
  };
  Layer("core.synthesize_ms", median_total("core.synthesize"), "ms");
  Layer("core.reassemble_ms", median_total("core.reassemble"), "ms");
  Layer("distributed.sample_latents_ms",
        median_total("distributed.sample_latents"), "ms");
  Layer("distributed.train_on_latents_ms",
        median_total("distributed.train_on_latents"), "ms");
  Layer("distributed.train_autoencoder_ms",
        median_total("distributed.train_autoencoder"), "ms");
  Layer("distributed.channel_messages", Median(channel_messages_), "count");
  {
    // Decode time per thousand rows, summed over the silos of each pass.
    double decode_ms = 0.0;
    auto it = stats.find("distributed.decode");
    if (it != stats.end()) {
      for (double ms : it->second.total_ms) decode_ms += ms;
    }
    const double rows = static_cast<double>(traced_rows_);
    Layer("distributed.decode_ms_per_krow",
          rows > 0 ? decode_ms / rows * 1e3 : 0.0, "ms/krow");
  }

  // tensor: single-thread GEMM rates at each workload's shapes (the measured
  // loops run at one thread), against the core's FMA peak.
  const int d = kBackboneWidth;
  const std::vector<GemmShape> serve_shape = {{false, false, kServeGemmRows, d, d}};
  const std::vector<GemmShape> bulk_shape = {{false, false, kBulkRows, d, d}};
  const std::vector<GemmShape> train_bwd = {
      {true, false, d, d, kTrainBatch},    // dW = X^T dY
      {false, true, kTrainBatch, d, d}};   // dX = dY W^T
  ScopedThreads one(1);
  const double serve_1t = GemmGflops(serve_shape, &rng);
  const double bulk_1t = GemmGflops(bulk_shape, &rng);
  Layer("tensor.gemm_gflops.serve", serve_1t, "GFLOP/s");
  Layer("tensor.gemm_gflops.bulk", bulk_1t, "GFLOP/s");
  Layer("tensor.gemm_gflops.train_bwd", GemmGflops(train_bwd, &rng),
        "GFLOP/s");
  Layer("tensor.peak_gflops.1t", PeakGflops1t(), "GFLOP/s");

  // runtime: GEMM time at 1 thread over time at the runtime's own count,
  // and the pool's counters over those bulk GEMMs.
  {
    ScopedThreads all(default_threads_);
    Layer("runtime.scaling.serve", GemmGflops(serve_shape, &rng) / serve_1t,
          "x");
    RegistryDelta pool;
    pool.Begin();
    Layer("runtime.scaling.bulk", GemmGflops(bulk_shape, &rng) / bulk_1t, "x");
    pool.End();
    ReportRuntimeLayers(pool);
  }

  // diffusion (at one thread, as the measured loops): one backbone
  // evaluation at each batch shape, its share of a bulk sampling pass, and
  // one training step.
  silofuse::GaussianDdpm* ddpm = model->coordinator()->ddpm();
  const int dim = model->total_latent_dim();
  auto nfe_ms = [&](int rows) {
    Matrix z(rows, dim);
    for (size_t i = 0; i < z.size(); ++i) {
      z.data()[i] = static_cast<float>(rng.Normal());
    }
    const std::vector<int> t(static_cast<size_t>(rows), 100);
    return MedianCallMs([&] { ddpm->ForwardBackbone(z, t, false); },
                        kProbeSeconds, 3);
  };
  const double nfe_bulk = nfe_ms(kBulkRows);
  Layer("diffusion.nfe_ms.serve", nfe_ms(kServeGemmRows), "ms");
  Layer("diffusion.nfe_ms.bulk", nfe_bulk, "ms");
  {
    const int steps = model->options().base.inference_steps;
    Rng sample_rng(Mix(config_.seed, 801));
    const auto t0 = Clock::now();
    auto z = model->coordinator()->SampleLatents(
        kBulkRows, steps, model->options().base.sampling_eta, &sample_rng);
    const double sample_ms = MsSince(t0);
    report_->Check("bulk latent sampling probe", z.ok());
    Layer("diffusion.nfe_share.bulk", steps * nfe_bulk / sample_ms, "ratio");
  }
  {
    silofuse::GaussianDdpmConfig config = ModelOptions(0, 0).base.diffusion;
    config.data_dim = dim;
    Rng init(Mix(config_.seed, 802));
    silofuse::GaussianDdpm fresh(config, &init);
    Matrix z0(kTrainBatch, dim);
    for (size_t i = 0; i < z0.size(); ++i) {
      z0.data()[i] = static_cast<float>(init.Normal());
    }
    Layer("diffusion.train_step_ms",
          MedianCallMs([&] { fresh.TrainStep(z0, &init); }, kProbeSeconds),
          "ms");
  }
}

void Bench::Run() {
  if (config_.workload == "serve_small") {
    ServeSmall();
  } else if (config_.workload == "synth_bulk") {
    SynthBulk();
  } else {
    FitSilos();
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_small", "synth_bulk",
                                                 "fit_silos"};
  return names;
}

void RunWorkload(const RunConfig& config, Tracer* tracer, Report* report) {
  Bench(config, tracer, report).Run();
}

std::string FingerprintJson() {
  std::ostringstream out;
  out << "{\"nproc\": " << Nproc()
      << ", \"num_threads\": " << silofuse::NumThreads()
      << ", \"gemm_simd\": " << (silofuse::GemmUsesSimd() ? "true" : "false")
      << ", \"compiler\": \"" << __VERSION__ << "\""
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

}  // namespace perfbench
