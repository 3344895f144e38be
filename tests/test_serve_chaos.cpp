// Resilience-layer tests: virtual-cost deadlines, priority-aware load
// shedding, snapshot hot-swap with canary rollback, degraded stale-cache
// serving, and the seeded chaos storm with its terminal-status invariant.
// The CTest ".threads1" variant re-runs every case under GPLUS_THREADS=1,
// and the thread-equivalence cases additionally flip the lane count
// in-process — the satellite extension of the equivalence gauntlet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/dataset.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "serve/resilience.h"
#include "serve/snapshot.h"

namespace gplus::serve {
namespace {

const core::Dataset& dataset_a() {
  static const core::Dataset instance = core::make_standard_dataset(3000, 7);
  return instance;
}

const core::Dataset& dataset_b() {
  static const core::Dataset instance = core::make_standard_dataset(3000, 8);
  return instance;
}

const SnapshotBuffer& snapshot_a() {
  static const SnapshotBuffer instance = build_snapshot(dataset_a());
  return instance;
}

const SnapshotBuffer& snapshot_b() {
  static const SnapshotBuffer instance = build_snapshot(dataset_b());
  return instance;
}

const SnapshotView& view_a() {
  static const SnapshotView instance{snapshot_a().bytes()};
  return instance;
}

std::uint32_t payload_u32(const Response& r, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, r.payload.data() + at, 4);
  return v;
}

// --- Deadlines ------------------------------------------------------------

TEST(DeadlineTest, CheapRequestsAlwaysBeatAnyPositiveBudget) {
  const RequestEngine engine(&view_a());
  Response r;
  for (const RequestType type :
       {RequestType::kGetProfile, RequestType::kReciprocity,
        RequestType::kDegree}) {
    Request q;
    q.type = type;
    q.user = 1;
    q.cost_budget = 1;  // the tightest possible deadline
    engine.execute(q, r);
    EXPECT_EQ(r.status, ServeStatus::kOk) << request_type_name(type);
    EXPECT_FALSE(r.partial());
    EXPECT_EQ(r.cost, 1u);
  }
}

TEST(DeadlineTest, ShortestPathAbortsPartialUnderTightBudget) {
  const RequestEngine engine(&view_a());
  Request q;
  q.type = RequestType::kShortestPath;
  q.user = 0;
  q.target = static_cast<graph::NodeId>(view_a().node_count() - 1);

  Response full;
  engine.execute(q, full);
  ASSERT_EQ(full.status, ServeStatus::kOk);
  ASSERT_GT(full.cost, 4u) << "need an expensive probe for this test";

  q.cost_budget = 4;
  Response partial;
  engine.execute(q, partial);
  EXPECT_EQ(partial.status, ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(partial.partial());
  EXPECT_EQ(partial.payload.size(), 12u);  // best-so-far + expanded
  EXPECT_LE(partial.cost, full.cost);

  // A budget at least the full cost changes nothing.
  q.cost_budget = static_cast<std::uint32_t>(full.cost);
  Response again;
  engine.execute(q, again);
  EXPECT_EQ(again.status, ServeStatus::kOk);
  EXPECT_EQ(again.payload, full.payload);
  EXPECT_EQ(again.cost, full.cost);
}

TEST(DeadlineTest, CirclePagePatchesCountOnAbort) {
  // Find a user with a reasonably large circle.
  graph::NodeId fat = 0;
  for (graph::NodeId u = 0; u < view_a().node_count(); ++u) {
    if (view_a().out_degree(u) > view_a().out_degree(fat)) fat = u;
  }
  ASSERT_GT(view_a().out_degree(fat), 8u);

  Request q;
  q.type = RequestType::kGetOutCircle;
  q.user = fat;
  q.limit = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(view_a().out_degree(fat), 1000));
  const RequestEngine engine(&view_a());

  q.cost_budget = 5;  // 1 dispatch + 4 entries
  Response r;
  engine.execute(q, r);
  EXPECT_EQ(r.status, ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(r.partial());
  EXPECT_EQ(payload_u32(r, 8), 4u);                  // patched count
  EXPECT_EQ(r.payload[12], 1u);                      // has_more
  EXPECT_EQ(r.payload.size(), 16u + 4u * 4u);        // header + 4 ids
  // The partial prefix matches the untimed page.
  Response full;
  Request unbounded = q;
  unbounded.cost_budget = 0;
  engine.execute(unbounded, full);
  ASSERT_EQ(full.status, ServeStatus::kOk);
  EXPECT_TRUE(std::equal(r.payload.begin() + 16, r.payload.end(),
                         full.payload.begin() + 16));
}

TEST(DeadlineTest, DeterministicOutcomePerBudget) {
  // The virtual clock never reads wall time: same (request, budget) →
  // same status, payload and cost, every time.
  const RequestEngine engine(&view_a());
  Request q;
  q.type = RequestType::kShortestPath;
  q.user = 3;
  q.target = 2900;
  for (const std::uint32_t budget : {0u, 2u, 16u, 64u, 1u << 20}) {
    q.cost_budget = budget;
    Response first;
    Response second;
    engine.execute(q, first);
    engine.execute(q, second);
    EXPECT_EQ(first.status, second.status) << budget;
    EXPECT_EQ(first.payload, second.payload) << budget;
    EXPECT_EQ(first.cost, second.cost) << budget;
  }
}

// --- Load shedding --------------------------------------------------------

Request degree_request(graph::NodeId user, Priority priority) {
  Request q;
  q.type = RequestType::kDegree;
  q.user = user;
  q.priority = priority;
  return q;
}

TEST(SheddingTest, HighPriorityShedsLowestFirst) {
  ServerConfig config;
  config.queue_capacity = 3;
  QueryServer server(&view_a(), config);

  ASSERT_EQ(server.submit(degree_request(0, Priority::kLow)), ServeStatus::kOk);
  ASSERT_EQ(server.submit(degree_request(1, Priority::kNormal)), ServeStatus::kOk);
  ASSERT_EQ(server.submit(degree_request(2, Priority::kLow)), ServeStatus::kOk);
  // Queue full. A normal arrival sheds the most recent kLow (user 2).
  EXPECT_EQ(server.submit(degree_request(3, Priority::kNormal)), ServeStatus::kOk);
  // Full again with live {low0, normal1, normal3}. High sheds the one
  // remaining live low (user 0).
  EXPECT_EQ(server.submit(degree_request(4, Priority::kHigh)), ServeStatus::kOk);
  // Full with {normal1, normal3, high4}: a normal arrival finds nothing
  // strictly below itself... except the normals. Strictly below kNormal
  // is only kLow — none left — so it is rejected.
  EXPECT_EQ(server.submit(degree_request(5, Priority::kNormal)),
            ServeStatus::kRejected);
  // A low arrival is rejected outright (nothing below kLow).
  EXPECT_EQ(server.submit(degree_request(6, Priority::kLow)),
            ServeStatus::kRejected);

  std::vector<Response> responses;
  server.drain(responses);
  // 5 admissions → 5 terminal responses: 2 shed, 3 served.
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].status, ServeStatus::kShed);    // low, shed by 4
  EXPECT_EQ(responses[1].status, ServeStatus::kOk);      // normal
  EXPECT_EQ(responses[2].status, ServeStatus::kShed);    // low, shed by 3
  EXPECT_EQ(responses[3].status, ServeStatus::kOk);      // normal
  EXPECT_EQ(responses[4].status, ServeStatus::kOk);      // high

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.shed_by_class[static_cast<std::size_t>(Priority::kLow)], 2u);
  EXPECT_EQ(stats.rejected_by_class[static_cast<std::size_t>(Priority::kNormal)], 1u);
  EXPECT_EQ(stats.rejected_by_class[static_cast<std::size_t>(Priority::kLow)], 1u);
  EXPECT_EQ(stats.admitted_by_class[static_cast<std::size_t>(Priority::kHigh)], 1u);
}

TEST(SheddingTest, WaitShedVictimIsSecondLowNotFirst) {
  ServerConfig config;
  config.queue_capacity = 2;
  QueryServer server(&view_a(), config);
  ASSERT_EQ(server.submit(degree_request(0, Priority::kLow)), ServeStatus::kOk);
  ASSERT_EQ(server.submit(degree_request(1, Priority::kLow)), ServeStatus::kOk);
  EXPECT_EQ(server.submit(degree_request(2, Priority::kHigh)), ServeStatus::kOk);
  std::vector<Response> responses;
  server.drain(responses);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk);    // oldest low survives
  EXPECT_EQ(responses[1].status, ServeStatus::kShed);  // most recent low shed
  EXPECT_EQ(responses[2].status, ServeStatus::kOk);
}

TEST(SheddingTest, QueuePressureCapsEffectiveCapacity) {
  ServerConfig config;
  config.queue_capacity = 100;
  QueryServer server(&view_a(), config);
  server.set_queue_pressure(2);
  ASSERT_EQ(server.submit(degree_request(0, Priority::kNormal)), ServeStatus::kOk);
  ASSERT_EQ(server.submit(degree_request(1, Priority::kNormal)), ServeStatus::kOk);
  EXPECT_EQ(server.submit(degree_request(2, Priority::kNormal)),
            ServeStatus::kRejected);
  server.set_queue_pressure(0);
  EXPECT_EQ(server.submit(degree_request(3, Priority::kNormal)), ServeStatus::kOk);
}

// --- Degraded mode --------------------------------------------------------

TEST(DegradedModeTest, ServesStaleCacheThenUnavailable) {
  ServerConfig config;
  QueryServer server(&view_a(), config);
  std::vector<Response> responses;

  Request profile;
  profile.type = RequestType::kGetProfile;
  profile.user = 5;
  ASSERT_EQ(server.submit(profile), ServeStatus::kOk);
  server.drain(responses);
  ASSERT_EQ(responses[0].status, ServeStatus::kOk);
  const std::vector<std::uint8_t> fresh_payload = responses[0].payload;

  server.rebind(nullptr);  // snapshot gone
  EXPECT_TRUE(server.degraded());
  EXPECT_EQ(server.engine(), nullptr);

  // Cached answer → kStaleCache with the cached payload.
  ASSERT_EQ(server.submit(profile), ServeStatus::kOk);
  // Uncached cacheable → kUnavailable. Non-cacheable → kUnavailable.
  Request other_profile = profile;
  other_profile.user = 6;
  ASSERT_EQ(server.submit(other_profile), ServeStatus::kOk);
  ASSERT_EQ(server.submit(degree_request(5, Priority::kNormal)), ServeStatus::kOk);
  server.drain(responses);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, ServeStatus::kStaleCache);
  EXPECT_EQ(responses[0].payload, fresh_payload);
  EXPECT_EQ(responses[1].status, ServeStatus::kUnavailable);
  EXPECT_EQ(responses[2].status, ServeStatus::kUnavailable);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.stale_served, 1u);
  EXPECT_EQ(stats.unavailable, 2u);
  EXPECT_EQ(stats.cache.stale_hits, 1u);

  // Rebinding brings full service back.
  server.rebind(&view_a());
  EXPECT_FALSE(server.degraded());
  ASSERT_EQ(server.submit(other_profile), ServeStatus::kOk);
  server.drain(responses);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk);
}

// --- SnapshotManager ------------------------------------------------------

TEST(SnapshotManagerTest, InstallKillRollbackLifecycle) {
  SnapshotManager manager;
  EXPECT_TRUE(manager.degraded());
  EXPECT_EQ(manager.epoch(), 0u);
  EXPECT_FALSE(manager.rollback());

  const std::uint64_t e1 = manager.install(SnapshotBuffer(snapshot_a()));
  EXPECT_EQ(e1, 1u);
  EXPECT_FALSE(manager.degraded());
  ASSERT_NE(manager.active(), nullptr);
  EXPECT_EQ(manager.active()->node_count(), dataset_a().graph().node_count());

  const std::uint64_t e2 = manager.install(SnapshotBuffer(snapshot_b()));
  EXPECT_EQ(e2, 2u);
  EXPECT_EQ(manager.generation_count(), 2u);  // active + rollback target

  ASSERT_TRUE(manager.rollback());
  EXPECT_EQ(manager.epoch(), e1);
  EXPECT_FALSE(manager.can_rollback());  // the rolled-away gen is gone
  EXPECT_EQ(manager.generation_count(), 1u);

  manager.kill_active();
  EXPECT_TRUE(manager.degraded());
  EXPECT_EQ(manager.epoch(), 0u);
  ASSERT_TRUE(manager.rollback());  // kill keeps the rollback target
  EXPECT_EQ(manager.epoch(), e1);
}

TEST(SnapshotManagerTest, PinKeepsGenerationAliveAcrossSwaps) {
  SnapshotManager manager;
  manager.install(SnapshotBuffer(snapshot_a()));
  SnapshotManager::Pin pin = manager.pin_active();
  ASSERT_TRUE(pin);
  const std::size_t pinned_nodes = pin.view()->node_count();

  // Two installs push the pinned generation out of active AND rollback
  // slots; the pin must keep its bytes readable.
  manager.install(SnapshotBuffer(snapshot_b()));
  manager.install(SnapshotBuffer(snapshot_b()));
  EXPECT_EQ(manager.generation_count(), 3u);  // active + previous + pinned
  EXPECT_EQ(pin.view()->node_count(), pinned_nodes);
  EXPECT_EQ(pin.view()->out_degree(0), view_a().out_degree(0));

  pin.release();
  manager.reap();
  EXPECT_EQ(manager.generation_count(), 2u);
}

TEST(SnapshotManagerTest, ValidateCatchesCorruptCandidates) {
  EXPECT_EQ(SnapshotManager::validate(snapshot_a()), "");
  // Flip one profile byte and reseal nothing: deep validation names it.
  std::vector<std::uint64_t> words((snapshot_a().size() + 7) / 8, 0);
  std::memcpy(words.data(), snapshot_a().bytes().data(), snapshot_a().size());
  std::uint64_t profiles_off = 0;
  std::memcpy(&profiles_off,
              reinterpret_cast<const std::uint8_t*>(snapshot_a().bytes().data()) + 72,
              8);
  reinterpret_cast<std::uint8_t*>(words.data())[profiles_off + 2] ^= 0x10;
  SnapshotBuffer corrupt(std::move(words), snapshot_a().size());
  const std::string defect = SnapshotManager::validate(corrupt);
  EXPECT_NE(defect.find("profiles"), std::string::npos) << defect;
}

// --- ChaosSchedule --------------------------------------------------------

TEST(ChaosScheduleTest, PureAndSeedSensitive) {
  ChaosConfig config;
  config.seed = 1234;
  config.fault_rate = 0.2;
  config.slow_rate = 0.3;
  config.pressure_rate = 0.5;
  config.pressure_capacity = 7;
  const ChaosSchedule schedule(config);

  std::size_t faults = 0;
  std::size_t slows = 0;
  std::size_t pressured = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const auto events = schedule.request_events(i);
    const auto replay = schedule.request_events(i);
    EXPECT_EQ(events.fault, replay.fault);
    EXPECT_EQ(events.slow, replay.slow);
    faults += events.fault ? 1 : 0;
    slows += events.slow ? 1 : 0;
    const std::size_t p = schedule.pressure(i);
    EXPECT_EQ(p, schedule.pressure(i));
    EXPECT_TRUE(p == 0 || p == 7);
    pressured += p != 0 ? 1 : 0;
  }
  // Loose law-of-large-numbers bands.
  EXPECT_GT(faults, 200u);
  EXPECT_LT(faults, 700u);
  EXPECT_GT(slows, 350u);
  EXPECT_LT(slows, 900u);
  EXPECT_GT(pressured, 700u);
  EXPECT_LT(pressured, 1300u);

  ChaosConfig reseeded = config;
  reseeded.seed = 4321;
  const ChaosSchedule other(reseeded);
  std::size_t differing = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    if (other.request_events(i).fault != schedule.request_events(i).fault) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

// --- Hot-swap protocol ----------------------------------------------------

TEST(HotSwapTest, InstallValidatesSwapsAndRollsBack) {
  ResilientServer resilient;
  EXPECT_TRUE(resilient.degraded());

  // Corrupt candidates never reach service.
  std::vector<std::uint64_t> words((snapshot_a().size() + 7) / 8, 0);
  std::memcpy(words.data(), snapshot_a().bytes().data(), snapshot_a().size());
  reinterpret_cast<std::uint8_t*>(words.data())[200] ^= 0xFF;
  const InstallReport bad =
      resilient.install(SnapshotBuffer(std::move(words), snapshot_a().size()));
  EXPECT_FALSE(bad.installed);
  EXPECT_FALSE(bad.rolled_back);
  EXPECT_NE(bad.error.find("validate:"), std::string::npos) << bad.error;
  EXPECT_TRUE(resilient.degraded());

  const InstallReport ok = resilient.install(SnapshotBuffer(snapshot_a()));
  EXPECT_TRUE(ok.installed);
  EXPECT_EQ(ok.error, "");
  EXPECT_FALSE(resilient.degraded());
  const std::uint64_t epoch_a = ok.epoch;

  // Canary failure (forced): swapped in, canaried, backed out — the old
  // generation keeps serving.
  const InstallReport doomed =
      resilient.install(SnapshotBuffer(snapshot_b()),
                        /*force_canary_failure=*/true);
  EXPECT_FALSE(doomed.installed);
  EXPECT_TRUE(doomed.rolled_back);
  EXPECT_EQ(doomed.epoch, epoch_a);
  EXPECT_NE(doomed.error.find("canary"), std::string::npos);
  ASSERT_NE(resilient.server().engine(), nullptr);
  EXPECT_EQ(resilient.server().engine()->snapshot().node_count(),
            dataset_a().graph().node_count());

  // And the real swap commits.
  const InstallReport swapped = resilient.install(SnapshotBuffer(snapshot_b()));
  EXPECT_TRUE(swapped.installed);
  EXPECT_GT(swapped.epoch, epoch_a);
}

TEST(HotSwapTest, FailedCanaryKeepsCacheCommittedSwapClearsIt) {
  ResilientServer resilient;
  ASSERT_TRUE(resilient.install(SnapshotBuffer(snapshot_a())).installed);

  Request profile;
  profile.type = RequestType::kGetProfile;
  profile.user = 9;
  std::vector<Response> responses;
  ASSERT_EQ(resilient.submit(profile), ServeStatus::kOk);
  resilient.drain(responses);
  ASSERT_EQ(resilient.submit(profile), ServeStatus::kOk);
  resilient.drain(responses);
  ASSERT_EQ(resilient.stats_snapshot().cache.hits, 1u);

  // A rolled-back install must not wipe still-valid entries.
  ASSERT_TRUE(resilient.install(SnapshotBuffer(snapshot_b()), true).rolled_back);
  ASSERT_EQ(resilient.submit(profile), ServeStatus::kOk);
  resilient.drain(responses);
  EXPECT_EQ(resilient.stats_snapshot().cache.hits, 2u);

  // A committed swap serves a different graph: the cache must start over.
  ASSERT_TRUE(resilient.install(SnapshotBuffer(snapshot_b())).installed);
  EXPECT_EQ(resilient.stats_snapshot().cache.entries, 0u);
  EXPECT_EQ(resilient.stats_snapshot().cache.hits, 0u);
}

TEST(HotSwapTest, KillKeepsStaleCacheAndRollbackRestores) {
  ResilientServer resilient;
  ASSERT_TRUE(resilient.install(SnapshotBuffer(snapshot_a())).installed);
  Request profile;
  profile.type = RequestType::kGetProfile;
  profile.user = 11;
  std::vector<Response> responses;
  ASSERT_EQ(resilient.submit(profile), ServeStatus::kOk);
  resilient.drain(responses);
  const std::vector<std::uint8_t> payload = responses[0].payload;

  resilient.kill_active();
  EXPECT_TRUE(resilient.degraded());
  ASSERT_EQ(resilient.submit(profile), ServeStatus::kOk);
  resilient.drain(responses);
  EXPECT_EQ(responses[0].status, ServeStatus::kStaleCache);
  EXPECT_EQ(responses[0].payload, payload);

  ASSERT_TRUE(resilient.rollback());
  EXPECT_FALSE(resilient.degraded());
  // Same epoch as the cache was filled under: entries survive the
  // round-trip through degraded mode.
  ASSERT_EQ(resilient.submit(profile), ServeStatus::kOk);
  resilient.drain(responses);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk);
  EXPECT_EQ(responses[0].payload, payload);
  EXPECT_GE(resilient.stats_snapshot().cache.hits, 1u);
}

// --- The storm ------------------------------------------------------------

StormConfig storm_config() {
  StormConfig config;
  config.seed = 77;
  config.clients = 48;
  config.rounds = 96;
  config.probes = 128;
  config.chaos.fault_rate = 0.02;
  config.chaos.slow_rate = 0.08;
  config.chaos.slow_budget = 12;
  config.chaos.pressure_rate = 0.2;
  config.chaos.pressure_capacity = 16;
  config.server.queue_capacity = 32;
  config.server.cache_capacity = 1 << 10;
  return config;
}

TEST(ChaosStormTest, EveryRequestOneTerminalStatusNoSilentDrops) {
  const StormReport report =
      run_chaos_storm(snapshot_a(), snapshot_b(), storm_config());
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(report.forced_rollback_fired);
  EXPECT_EQ(report.responses, report.accepted);
  EXPECT_EQ(report.offered, report.accepted + report.rejected);
  EXPECT_EQ(report.post_probe_checksum, report.fresh_probe_checksum);
  // The storm actually exercised every resilience channel.
  EXPECT_GT(report.by_status[static_cast<std::size_t>(ServeStatus::kShed)], 0u);
  EXPECT_GT(report.by_status[static_cast<std::size_t>(ServeStatus::kFaultInjected)], 0u);
  EXPECT_GT(report.by_status[static_cast<std::size_t>(ServeStatus::kUnavailable)], 0u);
  EXPECT_GT(report.server.deadline_exceeded, 0u);
  EXPECT_GT(report.rejected, 0u);
  std::uint64_t status_sum = 0;
  for (const std::uint64_t count : report.by_status) status_sum += count;
  EXPECT_EQ(status_sum, report.responses);
}

TEST(ChaosStormTest, BitIdenticalAcrossThreadCounts) {
  // The equivalence-gauntlet extension: deadlines + shedding + hot-swap
  // produce identical statuses, payloads (checksummed) and counters at
  // 1 lane and at 4.
  core::set_thread_count(1);
  const StormReport serial =
      run_chaos_storm(snapshot_a(), snapshot_b(), storm_config());
  core::set_thread_count(4);
  const StormReport parallel =
      run_chaos_storm(snapshot_a(), snapshot_b(), storm_config());
  core::set_thread_count(0);

  EXPECT_TRUE(serial.violations.empty());
  EXPECT_TRUE(parallel.violations.empty());
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.by_status, parallel.by_status);
  EXPECT_EQ(serial.offered, parallel.offered);
  EXPECT_EQ(serial.accepted, parallel.accepted);
  EXPECT_EQ(serial.rejected, parallel.rejected);
  EXPECT_EQ(serial.final_epoch, parallel.final_epoch);
  EXPECT_EQ(serial.post_probe_checksum, parallel.post_probe_checksum);
  EXPECT_EQ(serial.server.shed, parallel.server.shed);
  EXPECT_EQ(serial.server.deadline_exceeded, parallel.server.deadline_exceeded);
  EXPECT_EQ(serial.server.fault_injected, parallel.server.fault_injected);
  EXPECT_EQ(serial.server.stale_served, parallel.server.stale_served);
  EXPECT_EQ(serial.server.unavailable, parallel.server.unavailable);
  EXPECT_EQ(serial.server.cache.hits, parallel.server.cache.hits);
  EXPECT_EQ(serial.server.cache.stale_hits, parallel.server.cache.stale_hits);
  EXPECT_EQ(serial.server.cache.misses, parallel.server.cache.misses);
  EXPECT_EQ(serial.server.cache.evictions, parallel.server.cache.evictions);
  EXPECT_EQ(serial.server.cache.entries, parallel.server.cache.entries);
  EXPECT_EQ(serial.server.per_type, parallel.server.per_type);
  EXPECT_EQ(serial.server.admitted_by_class, parallel.server.admitted_by_class);
  EXPECT_EQ(serial.server.rejected_by_class, parallel.server.rejected_by_class);
  EXPECT_EQ(serial.server.shed_by_class, parallel.server.shed_by_class);
}

TEST(ChaosStormTest, RegistryDeltaReconcilesWithStormBookkeeping) {
  // The serve metrics are mirrored at the same coordinator-thread choke
  // points that feed StormReport, so the registry delta across one storm
  // must match the report exactly. The post-storm probe streams (worn +
  // fresh server, probes each) are the only extra traffic, and they can
  // only terminate ok/invalid — every overload channel reconciles 1:1.
  auto& registry = obs::MetricsRegistry::global();
  const auto before = registry.snapshot();
  const StormReport report =
      run_chaos_storm(snapshot_a(), snapshot_b(), storm_config());
  const auto d = obs::delta(registry.snapshot(), before);
  ASSERT_TRUE(report.violations.empty());

  const auto by_status = [&](ServeStatus s) {
    return static_cast<std::int64_t>(
        report.by_status[static_cast<std::size_t>(s)]);
  };
  const std::uint64_t probes_run =
      report.post_probe_checksum != 0 ? storm_config().probes : 0;

  EXPECT_EQ(d.value("serve.status.rejected"),
            static_cast<std::int64_t>(report.rejected));
  EXPECT_EQ(d.value("serve.status.shed"), by_status(ServeStatus::kShed));
  EXPECT_EQ(d.value("serve.status.deadline-exceeded"),
            by_status(ServeStatus::kDeadlineExceeded));
  EXPECT_EQ(d.value("serve.status.fault-injected"),
            by_status(ServeStatus::kFaultInjected));
  EXPECT_EQ(d.value("serve.status.stale-cache"),
            by_status(ServeStatus::kStaleCache));
  EXPECT_EQ(d.value("serve.status.unavailable"),
            by_status(ServeStatus::kUnavailable));
  EXPECT_EQ(d.value("serve.shed"), by_status(ServeStatus::kShed));
  EXPECT_EQ(d.value("serve.rejected"),
            static_cast<std::int64_t>(report.rejected));
  EXPECT_EQ(d.value("serve.accepted"),
            static_cast<std::int64_t>(report.accepted + 2 * probes_run));
  EXPECT_EQ(d.value("serve.served"),
            static_cast<std::int64_t>(report.responses + 2 * probes_run));

  // The storm's headline invariant, restated through the registry: every
  // offered request reached exactly one terminal status.
  std::int64_t terminal = 0;
  for (std::size_t s = 0; s < kServeStatusCount; ++s) {
    terminal += d.value(
        "serve.status." +
        std::string(serve_status_name(static_cast<ServeStatus>(s))));
  }
  EXPECT_EQ(terminal,
            static_cast<std::int64_t>(report.offered + 2 * probes_run));

  // The per-type cost histograms only ever record real engine executions:
  // their sample-count delta can never exceed the admitted traffic.
  std::int64_t cost_samples = 0;
  for (std::size_t t = 0; t < kRequestTypeCount; ++t) {
    cost_samples += d.value(
        "serve.cost." +
        std::string(request_type_name(static_cast<RequestType>(t))));
  }
  EXPECT_GT(cost_samples, 0);
  EXPECT_LE(cost_samples,
            static_cast<std::int64_t>(report.accepted + 2 * probes_run));
}

}  // namespace
}  // namespace gplus::serve
