#include "tracer.h"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <unordered_set>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace net = vanet::net;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Hook state. Shared by the installed callbacks so none of them can dangle.
struct TraceState {
  vanet::sim::Scenario* scenario = nullptr;
  LayerTimes out;
  Clock::time_point event_start;
  double span_in_event = 0.0;
  bool span_seen = false;
  bool tick_seen = false;
  std::uint64_t last_originated = 0;
  std::uint64_t last_sends = 0;
  /// Send times of every decoded hello frame (beacon creation instants).
  std::unordered_set<std::int64_t> beacon_times;
  struct SendEvent {
    std::int64_t at_us;
    double wall_s;
  };
  std::vector<SendEvent> send_events;

  template <typename F>
  void span(double& bucket, std::uint64_t& calls, F&& body) {
    const Clock::time_point t0 = Clock::now();
    body();
    const double d = seconds_between(t0, Clock::now());
    bucket += d;
    ++calls;
    span_in_event += d;
    span_seen = true;
  }

  std::uint64_t sends() {
    const net::NetCounters& c = scenario->network().counters();
    return c.frames_enqueued + c.frames_dropped_down;
  }

  void on_event_end() {
    const Clock::time_point now = Clock::now();
    const double wall = seconds_between(event_start, now);
    event_start = now;
    ++out.events;
    out.event_us.push_back(static_cast<float>(wall * 1e6));
    const std::uint64_t originated = scenario->metrics().originated();
    const std::uint64_t sent = sends();
    const double self = wall - span_in_event;
    if (tick_seen) {
      out.tick_s += wall;
      ++out.ticks;
    } else if (originated != last_originated) {
      out.originate_s += self;
    } else if (span_seen) {
      out.mac_s += self;
    } else if (sent != last_sends) {
      send_events.push_back(
          {scenario->simulator().now().as_micros(), wall});
    } else {
      out.mac_s += wall;
    }
    tick_seen = false;
    span_seen = false;
    span_in_event = 0.0;
    last_originated = originated;
    last_sends = sent;
  }
};

}  // namespace

LayerTimes run_traced(vanet::sim::Scenario& scenario) {
  if (scenario.is_sharded()) {
    throw std::invalid_argument("run_traced: serial scenarios only");
  }
  auto st = std::make_shared<TraceState>();
  st->scenario = &scenario;
  net::Network& network = scenario.network();
  net::HelloService* hello = scenario.hello();

  for (const net::NodeId id : network.node_ids()) {
    network.set_receive_handler(
        id, [st, hello, &scenario, id](const net::Packet& p) {
          if (p.kind == net::PacketKind::kHello) {
            if (hello == nullptr) return;
            st->beacon_times.insert(p.created_at.as_micros());
            st->span(st->out.hello_rx_s, st->out.hello_rx_calls,
                     [&] { hello->on_frame(id, p); });
            return;
          }
          st->span(st->out.routing_rx_s, st->out.routing_rx_calls,
                   [&] { scenario.protocol_at(id).handle_frame(p); });
        });
    network.set_unicast_fail_handler(
        id, [st, &scenario, id](const net::Packet& p) {
          st->span(st->out.fail_s, st->out.fail_calls, [&] {
            scenario.protocol_at(id).handle_unicast_failure(p);
          });
        });
  }
  scenario.mobility().add_tick_listener(
      [st](vanet::core::SimTime) { st->tick_seen = true; });
  scenario.simulator().set_abort_check([st] { st->on_event_end(); }, 1);

  st->last_originated = scenario.metrics().originated();
  st->last_sends = st->sends();
  const Clock::time_point t0 = Clock::now();
  st->event_start = t0;
  scenario.run();
  st->out.run_s = seconds_between(t0, Clock::now());
  scenario.simulator().set_abort_check(nullptr);

  for (const TraceState::SendEvent& e : st->send_events) {
    if (st->beacon_times.contains(e.at_us)) {
      st->out.beacon_s += e.wall_s;
    } else {
      st->out.timer_s += e.wall_s;
    }
  }
  return std::move(st->out);
}

}  // namespace perfbench
