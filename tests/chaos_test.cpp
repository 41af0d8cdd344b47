// Chaos tests: every fault class from the fault model (DESIGN.md) driven
// through a real router + 2-backend fleet with fixed seeds, asserting the
// five storm invariants (see src/testing/chaos_fleet.h):
//
//   1. no client-visible protocol corruption, 2. per-connection reply
//   order, 3. per-backend worker-pool counter conservation, 4. no stuck
//   requests + router leak gauges at zero, 5. bounded memory (implied by
//   4 + the LineReader line cap), 6. trace integrity under sampling
//   (winner-only spans, no leaked ring slots).
//
// A failing storm prints its seed and counts via describe(), so the run
// replays exactly. Out-of-process faults go through ChaosProxy (one per
// backend); in-process faults go through a ScheduledFaultInjector armed on
// the hook compiled into the framing layer. The in-process storm sticks to
// semantically invisible classes (short writes, dribbled reads, delays)
// because the injector is process-global: the storm's own client sockets
// go through the same hook.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "cluster/router.h"
#include "service/fault_injection.h"
#include "testing/chaos_fleet.h"
#include "testing/chaos_proxy.h"
#include "testing/scheduled_fault_injector.h"

namespace {

// tecfan::testing clashes with gtest's ::testing under a blanket using.
namespace chaos = tecfan::testing;
using tecfan::testing::ScheduledFaultInjector;
using tecfan::service::ScopedFaultInjector;

chaos::ChaosFleetOptions proxied_fleet(std::uint64_t seed) {
  chaos::ChaosFleetOptions o;
  o.backends = 2;
  o.with_proxies = true;
  o.proxy.seed = seed;
  return o;
}

chaos::StormOptions small_storm(std::uint64_t seed, bool allow_errors) {
  chaos::StormOptions o;
  o.seed = seed;
  o.clients = 3;
  o.requests_per_client = 24;
  o.pipeline_depth = 8;
  o.allow_errors = allow_errors;
  return o;
}

// ------------------------------------------------------------ baseline

TEST(Chaos, CleanProxiedFleetServesAStormFaultlessly) {
  // Proxies in the path but every fault probability zero: the harness
  // itself must not perturb the protocol.
  chaos::ChaosFleet fleet(proxied_fleet(101));
  const auto report = run_storm(fleet, small_storm(1001, false));
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_EQ(report.errors, 0u) << report.describe();
  EXPECT_EQ(report.requests, 72u);
}

// ------------------------------------------- connection-level fault classes

TEST(Chaos, ConnectionRefusalFailsOverCleanly) {
  auto o = proxied_fleet(102);
  o.proxy.refuse_p = 0.4;
  // Churn forces pipe re-dials the refusals can land on (the router
  // keeps one persistent pipe per backend).
  o.proxy.request_disconnect_p = 0.05;
  chaos::ChaosFleet fleet(o);
  const auto report = run_storm(fleet, small_storm(1002, true));
  EXPECT_TRUE(report.passed()) << report.describe();
}

TEST(Chaos, BlackholedFleetAnswersEveryRequestAndReclaimsItsFifos) {
  // Every connection is accepted and then never answered: the worst
  // backend. Request deadlines answer the clients; deadline + grace
  // stalls reclaim the pipe FIFOs (invariant 4's gauges prove it).
  auto o = proxied_fleet(103);
  o.proxy.blackhole_p = 1.0;
  chaos::ChaosFleet fleet(o);
  auto so = small_storm(1003, true);
  so.clients = 2;
  so.requests_per_client = 8;
  so.pipeline_depth = 4;
  const auto report = run_storm(fleet, so);
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_EQ(report.ok, 0u) << report.describe();  // nothing could compute
  EXPECT_EQ(report.errors, report.requests);
  EXPECT_GE(fleet.router().stats().pipe_stalls, 1u);
}

TEST(Chaos, MidlineDisconnectsFailOverWithoutCorruption) {
  auto o = proxied_fleet(104);
  o.proxy.request_disconnect_p = 0.08;
  o.proxy.reply_disconnect_p = 0.08;
  chaos::ChaosFleet fleet(o);
  const auto report = run_storm(fleet, small_storm(1004, true));
  EXPECT_TRUE(report.passed()) << report.describe();
}

// --------------------------------------------------- byte-level fault classes

TEST(Chaos, ShortWritesAreInvisible) {
  // Every request-leg send capped at 2 bytes: pure reassembly stress,
  // zero errors allowed.
  auto o = proxied_fleet(105);
  o.proxy.short_write_cap = 2;
  chaos::ChaosFleet fleet(o);
  const auto report = run_storm(fleet, small_storm(1005, false));
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_EQ(report.errors, 0u) << report.describe();
}

TEST(Chaos, SlowLorisRepliesAreInvisible) {
  // Every reply dribbled byte-at-a-time through the proxy.
  auto o = proxied_fleet(106);
  o.proxy.slowloris_p = 1.0;
  o.proxy.slowloris_delay_us = 20;
  chaos::ChaosFleet fleet(o);
  auto so = small_storm(1006, false);
  so.requests_per_client = 12;  // dribbled replies are slow by design
  const auto report = run_storm(fleet, so);
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_EQ(report.errors, 0u) << report.describe();
}

// ------------------------------------------------- reply-corruption classes

TEST(Chaos, CorruptedRepliesNeverReachClients) {
  auto o = proxied_fleet(107);
  o.proxy.corrupt_p = 0.3;
  chaos::ChaosFleet fleet(o);
  const auto report = run_storm(fleet, small_storm(1007, true));
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_EQ(report.malformed, 0u) << report.describe();
  // Corruption abandons the pipe and fails the FIFO over.
  EXPECT_GE(fleet.router().stats().failovers, 1u);
}

TEST(Chaos, TruncatedRepliesNeverReachClients) {
  auto o = proxied_fleet(108);
  o.proxy.truncate_p = 0.2;
  chaos::ChaosFleet fleet(o);
  const auto report = run_storm(fleet, small_storm(1008, true));
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_EQ(report.malformed, 0u) << report.describe();
}

TEST(Chaos, UnsolicitedGarbageLinesNeverReachClients) {
  auto o = proxied_fleet(109);
  o.proxy.unsolicited_p = 0.3;
  chaos::ChaosFleet fleet(o);
  const auto report = run_storm(fleet, small_storm(1009, true));
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_EQ(report.malformed, 0u) << report.describe();
  EXPECT_EQ(report.mismatched, 0u) << report.describe();
}

// ------------------------------------------------------- latency + hedging

TEST(Chaos, LatencySpikesWithHedgingStayCorrect) {
  auto o = proxied_fleet(110);
  o.proxy.reply_delay_p = 0.5;
  o.proxy.reply_delay_us = 5000;
  o.router.hedge_ms = 2.0;  // fixed hedge well under the spike
  chaos::ChaosFleet fleet(o);
  const auto report = run_storm(fleet, small_storm(1010, false));
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_EQ(report.errors, 0u) << report.describe();
  // With half the replies delayed 5 ms and a 2 ms hedge, hedges fire.
  EXPECT_GE(fleet.router().stats().hedges, 1u);
}

// ------------------------------------------------------------ traced storms

TEST(Chaos, TracedStormSurvivesFailoverWithWinnerOnlySpans) {
  // Every request sampled while disconnects force failovers: the retried
  // wire line carries the same trace context to the replica, so invariant
  // 6 proves the reassembled traces hold exactly one backend span set
  // (the attempt that actually answered) and the rings leak nothing.
  auto o = proxied_fleet(112);
  o.proxy.request_disconnect_p = 0.08;
  o.proxy.reply_disconnect_p = 0.08;
  o.router.trace_every = 1;
  chaos::ChaosFleet fleet(o);
  const auto report = run_storm(fleet, small_storm(1014, true));
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_GT(fleet.router().tracer().sampled_traces(), 0u);
  EXPECT_GT(report.traces_completed, 0u) << report.describe();
  EXPECT_EQ(report.open_spans_after, 0) << report.describe();
}

TEST(Chaos, TracedStormSurvivesHedgingWithWinnerOnlySpans) {
  // Latency spikes plus an aggressive hedge: both attempts of a hedged
  // request share one trace id, and only the winner's reply may fold its
  // spans into the router's rings (the loser is abandoned/discarded).
  auto o = proxied_fleet(113);
  o.proxy.reply_delay_p = 0.5;
  o.proxy.reply_delay_us = 5000;
  o.router.hedge_ms = 2.0;
  o.router.trace_every = 1;
  chaos::ChaosFleet fleet(o);
  const auto report = run_storm(fleet, small_storm(1015, false));
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_EQ(report.errors, 0u) << report.describe();
  EXPECT_GE(fleet.router().stats().hedges, 1u);
  EXPECT_GT(report.traces_completed, 0u) << report.describe();
  EXPECT_EQ(report.open_spans_after, 0) << report.describe();
}

// --------------------------------------------------------------- mixed storm

TEST(Chaos, MixedStormHoldsEveryInvariant) {
  auto o = proxied_fleet(111);
  o.proxy.refuse_p = 0.05;
  o.proxy.blackhole_p = 0.05;
  o.proxy.request_disconnect_p = 0.02;
  o.proxy.reply_disconnect_p = 0.02;
  o.proxy.short_write_cap = 7;
  o.proxy.corrupt_p = 0.03;
  o.proxy.truncate_p = 0.02;
  o.proxy.unsolicited_p = 0.03;
  o.proxy.reply_delay_p = 0.1;
  o.proxy.reply_delay_us = 1000;
  o.router.hedge_ms = 5.0;
  chaos::ChaosFleet fleet(o);
  // Two storms over the same fleet: the second runs on whatever pipes,
  // health state, and caches the first left behind.
  const auto first = run_storm(fleet, small_storm(1011, true));
  EXPECT_TRUE(first.passed()) << first.describe();
  const auto second = run_storm(fleet, small_storm(1012, true));
  EXPECT_TRUE(second.passed()) << second.describe();
}

// ------------------------------------------------------ in-process injector

TEST(Chaos, InProcessShortIoStormIsInvisible) {
  // The compiled-in hook, armed with nondestructive classes only: every
  // send may be capped, every recv may be dribbled or delayed. This
  // covers the router's nonblocking WriteQueue/LineReader paths AND the
  // storm's own blocking clients, since the injector is process-global.
  chaos::ChaosFleetOptions fo;
  fo.backends = 2;
  ScheduledFaultInjector::Options io;
  io.seed = 777;
  io.send_short_p = 0.3;
  io.send_short_cap = 9;
  io.recv_short_p = 0.3;
  io.recv_short_cap = 5;
  io.send_delay_p = 0.05;
  io.send_delay_us = 100;
  io.recv_delay_p = 0.05;
  io.recv_delay_us = 100;
  ScheduledFaultInjector injector(io);
  chaos::ChaosFleet fleet(fo);  // fleet dials before arming: clean start
  {
    ScopedFaultInjector armed(&injector);
    const auto report = run_storm(fleet, small_storm(1013, false));
    EXPECT_TRUE(report.passed()) << report.describe();
    EXPECT_EQ(report.errors, 0u) << report.describe();
  }
  const auto counts = injector.counts();
  EXPECT_GT(counts.total_injected(), 0u);
  EXPECT_GT(counts.sends_shortened + counts.recvs_shortened, 0u);
}

}  // namespace
