// Outside-in layer attribution for one serial Scenario run.
//
// Every hook goes through the simulator's public API, from this file only:
//  - Simulator::set_abort_check(fn, 1) runs after every dispatched event and
//    closes that event's wall-clock span;
//  - a MobilityManager tick listener marks the event that was a mobility
//    tick (the whole tick, including the Network position/grid refresh,
//    which is an earlier listener of the same event);
//  - the per-node receive / unicast-failure handlers are re-installed with
//    wrappers that dispatch exactly as Scenario does (hello frames to
//    HelloService::on_frame, everything else to the node's protocol) inside
//    a timed span.
// An event that contains no handler span is classified by what changed in
// the public counters while it ran: Metrics::originated (a CBR send: the
// routing agent's originate path), or NetCounters frames enqueued (a hello
// beacon when its send time matches the creation time of some decoded hello
// frame, a routing timer otherwise). Everything else — transmission
// start/finish, reception fan-out minus the handler spans, backoff — is MAC
// time. The wrappers change no model state, so a traced run must reproduce
// the untraced digest bit for bit; the workloads check that.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scenario.h"

namespace perfbench {

/// Wall-clock attribution of one traced run (seconds unless named _calls).
struct LayerTimes {
  double run_s = 0.0;        ///< wall time of Scenario::run() under tracing
  double mac_s = 0.0;        ///< event time not attributed elsewhere
  double tick_s = 0.0;       ///< mobility tick events
  double beacon_s = 0.0;     ///< hello beacon events (incl. beacon extension)
  double hello_rx_s = 0.0;   ///< HelloService::on_frame spans
  double routing_rx_s = 0.0; ///< RoutingProtocol::handle_frame spans
  double fail_s = 0.0;       ///< handle_unicast_failure spans
  double originate_s = 0.0;  ///< CBR send events (protocol originate path)
  double timer_s = 0.0;      ///< other events that enqueued a frame
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t hello_rx_calls = 0;
  std::uint64_t routing_rx_calls = 0;
  std::uint64_t fail_calls = 0;
  std::vector<float> event_us;  ///< per-event wall time, microseconds

  /// Sum of every attributed bucket (equals run_s up to the start phase).
  double attributed_s() const {
    return mac_s + tick_s + beacon_s + hello_rx_s + routing_rx_s + fail_s +
           originate_s + timer_s;
  }
};

/// Runs `scenario` (built, not yet run, serial engine) under tracing and
/// returns the attribution. The hooks stay installed but inert afterwards:
/// Scenario::run() runs once, so no event is dispatched after this returns.
LayerTimes run_traced(vanet::sim::Scenario& scenario);

}  // namespace perfbench
