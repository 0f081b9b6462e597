// Crash-consistent ingestion benchmark: the durability tax of the WAL +
// checkpoint path against the plain in-memory session at each sync
// policy (acceptance: durable >= 90% of plain throughput at
// --wal_sync=interval), and recovery latency as a function of the
// replayed WAL tail — checkpoint interval vs crash offset. Every
// durable and every recovered run is fingerprint-checked against batch
// segmentation (a perf number for a wrong answer is worthless).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/report_common.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/segmentation.h"
#include "simulator/provenance_sink.h"
#include "stream/fingerprint.h"
#include "stream/session.h"
#include "stream/supervisor.h"
#include "stream/wal.h"

namespace mlprov {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Buffers one pipeline's feed so every run replays identical records
/// without the feeder walk inside the timed section (span stats are
/// borrowed from the trace, which outlives the benchmark).
struct RecordingSink : public sim::ProvenanceSink {
  std::vector<sim::ProvenanceRecord> records;
  void OnRecord(const sim::ProvenanceRecord& record) override {
    records.push_back(record);
  }
};

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int Run(int argc, char** argv) {
  bench::ReportContext ctx(argc, argv, "Crash-consistent ingestion",
                           /*default_pipelines=*/60);
  const bool keep_wal = !ctx.options.wal_dir.empty();
  const fs::path root =
      keep_wal ? fs::path(ctx.options.wal_dir)
               : fs::temp_directory_path() /
                     ("mlprov_bench_recovery_" +
                      std::to_string(ctx.config.seed));
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n",
                 root.string().c_str(), ec.message().c_str());
    return 1;
  }

  std::vector<RecordingSink> feeds(ctx.corpus.pipelines.size());
  std::vector<uint64_t> expected(ctx.corpus.pipelines.size());
  size_t total_records = 0;
  for (size_t p = 0; p < ctx.corpus.pipelines.size(); ++p) {
    sim::ProvenanceFeeder feeder(&feeds[p]);
    feeder.Finish(ctx.corpus.pipelines[p]);
    expected[p] = stream::FingerprintGraphlets(
        core::SegmentTrace(ctx.corpus.pipelines[p].store));
    total_records += feeds[p].records.size();
  }

  // ---- Phase 1: plain in-memory baseline. ----
  stream::SessionOptions session_options;
  session_options.segmenter.seal_grace_hours =
      ctx.options.stream_seal_grace_hours;
  bool identical = true;
  double plain_seconds = 0.0;
  for (size_t p = 0; p < feeds.size(); ++p) {
    stream::ProvenanceSession session(session_options);
    const auto t0 = Clock::now();
    for (const sim::ProvenanceRecord& record : feeds[p].records) {
      (void)session.Ingest(record);
    }
    auto result = session.Finish();
    plain_seconds += Seconds(t0);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    identical = identical &&
                stream::FingerprintGraphlets(result->graphlets) ==
                    expected[p];
  }
  const double plain_rate =
      plain_seconds > 0.0 ? total_records / plain_seconds : 0.0;
  std::printf("plain ingest: %zu records in %.3fs (%.0f records/s)\n\n",
              total_records, plain_seconds, plain_rate);
  ctx.report.Set("recovery.records",
                 static_cast<int64_t>(total_records));
  ctx.report.Set("recovery.plain_seconds", plain_seconds);
  ctx.report.Set("recovery.plain_records_per_sec", plain_rate);

  // ---- Phase 2: durability tax per sync policy. ----
  // The three sync rows run WAL-only (checkpoint interval 0): the WAL
  // alone makes ingest durable; checkpoints let the WAL segments they
  // cover be pruned. The fourth row prices the checkpointed
  // configuration — a store snapshot every --checkpoint_interval
  // records — reported separately so the WAL tax is not conflated
  // with it.
  const uint64_t checkpoint_interval = static_cast<uint64_t>(
      std::max<int64_t>(0, ctx.options.checkpoint_interval));
  struct TaxRow {
    stream::WalSyncPolicy sync;
    uint64_t checkpoint_interval;
    std::string label;
  };
  const std::vector<TaxRow> tax_rows = {
      {stream::WalSyncPolicy::kNone, 0, "none"},
      {stream::WalSyncPolicy::kInterval, 0, "interval"},
      {stream::WalSyncPolicy::kEvery, 0, "every"},
      {stream::WalSyncPolicy::kInterval, checkpoint_interval,
       "interval+ckpt" + std::to_string(checkpoint_interval)},
  };
  common::TextTable tax({"configuration", "seconds", "records/s",
                         "vs plain"});
  double interval_ratio = 0.0;
  for (const TaxRow& row : tax_rows) {
    const std::string& label = row.label;
    double durable_seconds = 0.0;
    for (size_t p = 0; p < feeds.size(); ++p) {
      stream::DurableOptions durable;
      durable.wal.dir =
          (root / ("tax_" + label) / ("p" + std::to_string(p))).string();
      durable.wal.sync = row.sync;
      durable.checkpoint_interval = row.checkpoint_interval;
      durable.session = session_options;
      auto opened = stream::DurableSession::Open(durable);
      if (!opened.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      const auto t0 = Clock::now();
      for (const sim::ProvenanceRecord& record : feeds[p].records) {
        const common::Status status = opened->Ingest(record);
        if (!status.ok()) {
          std::fprintf(stderr, "error: %s\n",
                       status.ToString().c_str());
          return 1;
        }
      }
      auto result = opened->Finish();
      durable_seconds += Seconds(t0);
      if (!result.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      identical = identical &&
                  stream::FingerprintGraphlets(result->graphlets) ==
                      expected[p];
    }
    const double rate =
        durable_seconds > 0.0 ? total_records / durable_seconds : 0.0;
    const double ratio = plain_rate > 0.0 ? rate / plain_rate : 0.0;
    if (label == "interval") interval_ratio = ratio;
    tax.AddRow({label, common::TextTable::Num(durable_seconds, 3),
                common::TextTable::Num(rate, 0),
                common::TextTable::Num(ratio, 2)});
    ctx.report.Set("recovery.durable_seconds." + label, durable_seconds);
    ctx.report.Set("recovery.durable_records_per_sec." + label, rate);
    ctx.report.Set("recovery.durable_ratio." + label, ratio);
  }
  std::fputs(tax.Render().c_str(), stdout);
  std::printf(
      "durable/plain throughput at sync=interval: %.2f "
      "(acceptance: >= 0.90)\n\n",
      interval_ratio);
  ctx.report.Set("recovery.acceptance.durable_ratio_interval",
                 interval_ratio);
  ctx.report.Set("recovery.acceptance.durable_ratio_pass",
                 interval_ratio >= 0.90);

  // ---- Phase 3: recovery latency vs replayed tail. ----
  // Crash the largest pipeline at several offsets under several
  // checkpoint cadences; the recovery cost is DurableSession::Open —
  // newest checkpoint load (which replays the records it holds) + WAL
  // tail replay. Interval 0 means WAL-only (the whole prefix is the
  // tail). Open repairs the directory it recovers, so each cell opens
  // kOpens fresh copies of its crashed directory and reports the median
  // and minimum: single opens vary too much to compare. The copies of
  // one offset's cadences are opened in turn, so a drift in the host's
  // speed hits every cadence alike.
  constexpr int kOpens = 5;
  size_t big = 0;
  for (size_t p = 0; p < feeds.size(); ++p) {
    if (feeds[p].records.size() > feeds[big].records.size()) big = p;
  }
  const std::vector<sim::ProvenanceRecord>& feed = feeds[big].records;
  const uint64_t intervals[] = {
      0, 64, checkpoint_interval == 0 ? 256 : checkpoint_interval};
  common::TextTable lat({"crash offset", "checkpoint interval", "replayed",
                         "median open ms", "min open ms"});
  obs::Json latency_rows = obs::Json::Array();
  for (const double frac : {0.25, 0.5, 0.75, 1.0}) {
    const uint64_t offset = std::min<uint64_t>(
        feed.size(),
        static_cast<uint64_t>(frac * static_cast<double>(feed.size())));
    std::vector<stream::DurableOptions> crashed;
    for (const uint64_t interval : intervals) {
      stream::DurableOptions& durable = crashed.emplace_back();
      durable.wal.dir = (root / ("lat_" + std::to_string(interval) + "_" +
                                 std::to_string(offset)))
                            .string();
      durable.wal.sync = stream::WalSyncPolicy::kEvery;
      durable.checkpoint_interval = interval;
      durable.session = session_options;
      auto first = stream::DurableSession::Open(durable);
      if (!first.ok()) return 1;
      for (uint64_t i = 0; i < offset; ++i) {
        if (!first->Ingest(feed[i]).ok()) return 1;
      }
      (void)first->SimulateCrash(0);
    }

    std::vector<std::vector<double>> open_seconds(crashed.size());
    std::vector<std::optional<stream::DurableSession>> recovered(
        crashed.size());
    for (int copy = 0; copy < kOpens; ++copy) {
      for (size_t k = 0; k < crashed.size(); ++k) {
        stream::DurableOptions fresh = crashed[k];
        fresh.wal.dir += "_open" + std::to_string(copy);
        fs::copy(crashed[k].wal.dir, fresh.wal.dir,
                 fs::copy_options::recursive, ec);
        if (ec) {
          std::fprintf(stderr, "error: cannot copy %s: %s\n",
                       crashed[k].wal.dir.c_str(), ec.message().c_str());
          return 1;
        }
        const auto t0 = Clock::now();
        auto opened = stream::DurableSession::Open(fresh);
        open_seconds[k].push_back(Seconds(t0));
        if (!opened.ok()) {
          std::fprintf(stderr, "error: recovery: %s\n",
                       opened.status().ToString().c_str());
          return 1;
        }
        recovered[k].emplace(std::move(*opened));
      }
    }
    for (size_t k = 0; k < crashed.size(); ++k) {
      stream::DurableSession& session = *recovered[k];
      const uint64_t replayed = session.recovery().replayed_records;
      for (uint64_t i = session.records(); i < feed.size(); ++i) {
        if (!session.Ingest(feed[i]).ok()) return 1;
      }
      auto result = session.Finish();
      if (!result.ok()) return 1;
      identical = identical &&
                  stream::FingerprintGraphlets(result->graphlets) ==
                      expected[big];
      const double median_open = common::Median(open_seconds[k]);
      const double min_open =
          *std::min_element(open_seconds[k].begin(), open_seconds[k].end());
      lat.AddRow({std::to_string(offset), std::to_string(intervals[k]),
                  std::to_string(replayed),
                  common::TextTable::Num(median_open * 1e3, 2),
                  common::TextTable::Num(min_open * 1e3, 2)});
      obs::Json row = obs::Json::Object();
      row.Set("checkpoint_interval", intervals[k]);
      row.Set("crash_offset", offset);
      row.Set("replayed_records", replayed);
      row.Set("open_seconds", median_open);
      row.Set("open_seconds_min", min_open);
      latency_rows.Push(std::move(row));
      for (int copy = 0; copy < kOpens; ++copy) {
        fs::remove_all(crashed[k].wal.dir + "_open" + std::to_string(copy),
                       ec);
      }
    }
  }
  std::fputs(lat.Render().c_str(), stdout);
  std::printf("\nall runs == batch segmentation: %s\n",
              identical ? "IDENTICAL" : "MISMATCH — BUG");
  ctx.report.Set("recovery.latency", std::move(latency_rows));
  ctx.report.Set("recovery.identical", identical);

  if (!keep_wal) fs::remove_all(root, ec);
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace mlprov

int main(int argc, char** argv) { return mlprov::Run(argc, argv); }
