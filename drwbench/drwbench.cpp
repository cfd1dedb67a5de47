// drwbench: the C++ half of the drw benchmark; drwbench/run.py calls it.
//
//   drwbench graph  --kind=powerlaw|regular --n=N --d=D --seed=S --out=FILE
//       Writes a generated edge list; the served program only ever sees
//       this file, never the benchmark's seed.
//   drwbench load   --port=P --requests=FILE --out=FILE [--edges=FILE]
//       One load-generator process, one thread: opens the schedule's
//       connections to a live `drw serve --listen`, sends every request at
//       its due time (open loop) or on the previous response (closed loop),
//       checks every response and writes one timing line per request.
//   drwbench replay --graph=SPEC --seed=S --threads=T --batches=FILE
//                   [--paths=1 --edges=FILE --snapshot=FILE]
//                   [--traced=1 --spans=FILE]
//       The traced in-process replay: the batches a live server admitted
//       (its admission log), through the same public library calls, in the
//       order `drw serve --listen` makes them (graph, diameter, Network,
//       WalkService, then per batch admission drain, submit+flush,
//       checkpoint, response encode). Spans are recorded here, around those
//       calls, never inside the library.
//
// Request file of `load` (written by run.py):
//   conn <id> <class> <open|closed>
//   req <conn> <due_ms> <source> <length> <count> <record>
// Sources are user ids (the id space of the edge-list file).
#include <poll.h>

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "service/admission.hpp"
#include "service/walk_service.hpp"
#include "util/rng.hpp"

namespace {

using namespace drw;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "drwbench: %s\n", why.c_str());
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      fail("bad flag: " + a);
    }
    const std::string key = a.substr(2, eq - 2);
    const std::string value = a.substr(eq + 1);
    flags[key] = value;
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) fail("missing --" + key);
  return it->second;
}

std::string get(const std::map<std::string, std::string>& flags,
                const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// ------------------------------------------------------------ schedule

struct Request {
  std::uint64_t tag = 0;  // index in file order
  std::uint32_t conn = 0;
  double due_ms = 0.0;  // load: scheduled send; replay: live send time
  // Replay, closed loop: the request on the same connection this one
  // waited for (-1: none), and the live gap from that response to this send.
  std::int64_t after = -1;
  double gap_ms = 0.0;
  std::uint64_t source = 0;
  std::uint64_t length = 0;
  std::uint32_t count = 0;
  bool record = false;
};

struct Connection {
  std::uint32_t id = 0;
  std::string klass;
  bool closed_loop = false;
  std::vector<std::size_t> requests;  // indices into Schedule::requests
};

struct Schedule {
  std::vector<Connection> conns;
  std::vector<Request> requests;
};

net::RequestFrame to_frame(const Request& req) {
  net::RequestFrame frame;
  frame.tag = req.tag;
  frame.source = req.source;
  frame.length = req.length;
  frame.count = req.count;
  frame.record = req.record;
  return frame;
}

Schedule read_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read " + path);
  Schedule s;
  std::map<std::uint32_t, std::size_t> index;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    if (kind == "conn") {
      Connection c;
      std::string loop;
      if (!(ls >> c.id >> c.klass >> loop)) fail("bad conn line: " + line);
      c.closed_loop = loop == "closed";
      index[c.id] = s.conns.size();
      s.conns.push_back(c);
    } else if (kind == "req") {
      Request r;
      int record = 0;
      if (!(ls >> r.conn >> r.due_ms >> r.source >> r.length >> r.count >>
            record)) {
        fail("bad req line: " + line);
      }
      r.record = record != 0;
      r.tag = s.requests.size();
      const auto it = index.find(r.conn);
      if (it == index.end()) fail("req before its conn line: " + line);
      s.conns[it->second].requests.push_back(s.requests.size());
      s.requests.push_back(r);
    } else {
      fail("bad line: " + line);
    }
  }
  return s;
}

/// The replay input run.py writes from a server's admission log: the
/// admitted batches, in order, grouped by load phase, each request with its
/// live send time (ms from the phase's start) and, on a closed-loop
/// connection, the tag of the response it waited for plus the gap after it.
///   phase
///   batch
///   req <tag> <sent_ms> <source> <length> <count> <record> <after> <gap_ms>
using Phase = std::vector<std::vector<Request>>;

std::vector<Phase> read_batches(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read " + path);
  std::vector<Phase> phases;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    if (kind == "phase") {
      phases.emplace_back();
    } else if (kind == "batch" && !phases.empty()) {
      phases.back().emplace_back();
    } else if (kind == "req" && !phases.empty() && !phases.back().empty()) {
      Request r;
      int record = 0;
      if (!(ls >> r.tag >> r.due_ms >> r.source >> r.length >> r.count >>
            record >> r.after >> r.gap_ms)) {
        fail("bad req line: " + line);
      }
      r.record = record != 0;
      phases.back().back().push_back(r);
    } else {
      fail("bad line: " + line);
    }
  }
  return phases;
}

// ------------------------------------------------------------ checks

/// Checks one response against its request: ok status, admitted, one
/// valid destination per walk, and for recorded walks a path that starts
/// at the source, has length+1 nodes, steps only along edges of `edges`
/// and ends at the destination. Returns an empty string when it holds.
std::string check_response(const Request& req, const net::ResponseFrame& r,
                           std::uint64_t node_count, const Graph* edges) {
  if (r.status != 0) return "status " + std::to_string(r.status);
  if (r.admission_index == net::kNotAdmitted) return "not admitted";
  if (r.destinations.size() != req.count) return "destination count";
  for (std::uint32_t d : r.destinations) {
    if (d >= node_count) return "destination out of range";
    if (req.length == 0 && d != req.source) return "noop moved";
  }
  if (!req.record) return r.paths.empty() ? "" : "unrequested paths";
  if (r.paths.size() != req.count) return "path count";
  for (std::size_t i = 0; i < r.paths.size(); ++i) {
    const auto& path = r.paths[i];
    if (path.size() != req.length + 1) return "path length";
    if (path.front() != req.source) return "path start";
    if (path.back() != r.destinations[i]) return "path end";
    if (edges == nullptr) return "no edge list to check paths against";
    for (std::size_t j = 1; j < path.size(); ++j) {
      if (path[j - 1] >= edges->node_count() ||
          !edges->has_edge(path[j - 1], path[j])) {
        return "path step is not an edge";
      }
    }
  }
  return "";
}

// ------------------------------------------------------------ graph

int cmd_graph(const std::map<std::string, std::string>& flags) {
  const std::string kind = need(flags, "kind");
  const auto n = static_cast<std::size_t>(std::stoull(need(flags, "n")));
  const auto d = static_cast<std::uint32_t>(std::stoul(need(flags, "d")));
  Rng rng(std::stoull(need(flags, "seed")));
  Graph g;
  if (kind == "powerlaw") {
    g = gen::power_law(n, d, rng);
  } else if (kind == "regular") {
    g = gen::random_regular(n, d, rng);
  } else {
    fail("unknown --kind " + kind);
  }
  write_edge_list_file(need(flags, "out"), g);
  return 0;
}

// ------------------------------------------------------------ load

int cmd_load(const std::map<std::string, std::string>& flags) {
  const auto port =
      static_cast<std::uint16_t>(std::stoul(need(flags, "port")));
  const Schedule s = read_schedule(need(flags, "requests"));
  const std::string edge_file = get(flags, "edges", "");
  std::optional<Graph> edges;
  if (!edge_file.empty()) edges = read_edge_list_file(edge_file, 1);
  const int io_ms = 60000;

  struct Live {
    net::Socket sock;
    std::size_t next = 0;         // next request (index into conn.requests)
    std::size_t outstanding = 0;
  };
  std::vector<Live> live(s.conns.size());
  std::uint64_t node_count = 0;
  for (std::size_t c = 0; c < s.conns.size(); ++c) {
    live[c].sock = net::tcp_connect("127.0.0.1", port, io_ms);
    net::HelloFrame hello;
    hello.klass = s.conns[c].klass;
    net::FrameType type{};
    std::vector<std::uint8_t> payload;
    if (!net::write_frame(live[c].sock, net::FrameType::kHello,
                          net::encode_hello(hello), io_ms) ||
        !net::read_frame(live[c].sock, &type, &payload, io_ms) ||
        type != net::FrameType::kHello) {
      fail("HELLO handshake failed");
    }
    const auto reply = net::decode_hello(payload.data(), payload.size());
    if (!reply || reply->version != net::kProtocolVersion) {
      fail("protocol version mismatch");
    }
    node_count = reply->node_count;
  }

  std::vector<double> due(s.requests.size(), 0.0);
  std::vector<double> sent(s.requests.size(), -1.0);
  std::vector<double> recv(s.requests.size(), -1.0);
  std::vector<int> status(s.requests.size(), -1);
  std::vector<std::string> problem(s.requests.size());
  std::size_t received = 0;
  std::size_t failures = 0;
  std::string first_failure;

  const Clock::time_point epoch = Clock::now();
  const auto now_ms = [&] { return ms_between(epoch, Clock::now()); };
  double last_progress = 0.0;
  std::vector<pollfd> fds(s.conns.size());

  while (received < s.requests.size()) {
    double now = now_ms();
    double next_due = 1e300;
    for (std::size_t c = 0; c < s.conns.size(); ++c) {
      const Connection& conn = s.conns[c];
      Live& l = live[c];
      while (l.next < conn.requests.size()) {
        const std::size_t ri = conn.requests[l.next];
        const Request& req = s.requests[ri];
        if (conn.closed_loop) {
          if (l.outstanding != 0) break;
          due[ri] = now;  // closed loop: due the moment its slot frees
        } else if (req.due_ms > now) {
          next_due = std::min(next_due, req.due_ms);
          break;
        } else {
          due[ri] = req.due_ms;
        }
        if (!net::write_frame(l.sock, net::FrameType::kRequest,
                              net::encode_request(to_frame(req)), io_ms)) {
          fail("send failed");
        }
        sent[ri] = now_ms();
        ++l.outstanding;
        ++l.next;
      }
      fds[c].fd = l.sock.fd();
      fds[c].events = POLLIN;
      fds[c].revents = 0;
    }
    now = now_ms();
    const double wait_ms = std::clamp(next_due - now, 0.0, 50.0);
    timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = static_cast<long>(wait_ms * 1e6);
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) fail("poll failed");
    for (std::size_t c = 0; c < s.conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      net::FrameType type{};
      std::vector<std::uint8_t> payload;
      if (!net::read_frame(live[c].sock, &type, &payload, io_ms) ||
          type != net::FrameType::kResponse) {
        fail("connection lost after " + std::to_string(received) + "/" +
             std::to_string(s.requests.size()) + " responses");
      }
      const double at = now_ms();
      const auto frame = net::decode_response(payload.data(), payload.size());
      if (!frame || frame->tag >= s.requests.size() || recv[frame->tag] >= 0 ||
          sent[frame->tag] < 0) {
        fail("malformed or unexpected response");
      }
      const Request& req = s.requests[frame->tag];
      recv[req.tag] = at;
      status[req.tag] = frame->status;
      problem[req.tag] =
          check_response(req, *frame, node_count, edges ? &*edges : nullptr);
      if (!problem[req.tag].empty()) {
        if (failures++ == 0) {
          first_failure = "tag " + std::to_string(req.tag) + ": " +
                          problem[req.tag];
        }
      }
      --live[c].outstanding;
      ++received;
      last_progress = at;
    }
    if (now_ms() - last_progress > 120000.0) fail("no response for 120 s");
  }

  std::ofstream out(need(flags, "out"));
  if (!out) fail("cannot write --out");
  out << "# tag conn due_ms sent_ms recv_ms status ok steps\n";
  char buf[256];
  for (const Request& r : s.requests) {
    std::snprintf(buf, sizeof buf, "%llu %u %.4f %.4f %.4f %d %d %llu\n",
                  static_cast<unsigned long long>(r.tag), r.conn, due[r.tag],
                  sent[r.tag], recv[r.tag], status[r.tag],
                  problem[r.tag].empty() ? 1 : 0,
                  static_cast<unsigned long long>(r.count * r.length));
    out << buf;
  }
  std::printf(
      "{\"node_count\": %llu, \"requests\": %zu, \"failures\": %zu, "
      "\"first_failure\": \"%s\"}\n",
      static_cast<unsigned long long>(node_count), s.requests.size(), failures,
      first_failure.c_str());
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------ replay

/// In-memory span log: name, start, end, parent span, request id. Written
/// out once, after the replay ends. Disarmed, begin/end record nothing.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    std::int64_t request = -1;
  };

  Spans(bool armed, Clock::time_point epoch) : armed_(armed), epoch_(epoch) {}

  void begin(const char* name, std::int64_t request = -1) {
    if (!armed_) return;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start_ms = ms_between(epoch_, Clock::now());
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void end() {
    if (!armed_) return;
    spans_[stack_.back()].end_ms = ms_between(epoch_, Clock::now());
    stack_.pop_back();
  }
  /// A child measured by the library itself (RunStats::wall_ms): its
  /// duration is known, its position inside the parent is not.
  void attribute(const char* name, double duration_ms, std::int64_t request) {
    if (!armed_) return;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start_ms = spans_[s.parent].start_ms;
    s.end_ms = s.start_ms + duration_ms;
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool armed_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

struct ScopedSpan {
  ScopedSpan(Spans& spans, const char* name, std::int64_t request = -1)
      : spans_(spans) {
    spans_.begin(name, request);
  }
  ~ScopedSpan() { spans_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  Spans& spans_;
};

struct ReplayTotals {
  double graph_build_ms = 0, graph_diameter_ms = 0, congest_init_ms = 0;
  congest::RunStats run;  // summed over every flush
  congest::RunStats phase1, phase2, regen;
  std::uint64_t stitches = 0, gmw_calls = 0, inventory_hits = 0;
  std::uint64_t walk_steps = 0, batches = 0, batch_requests = 0;
  std::uint64_t full_prepares = 0, replenishments = 0;
  std::uint64_t mux_groups = 0, mux_lanes = 0, mux_conflicts = 0;
  double flush_ms = 0, queue_wait_ms = 0, drain_ms = 0, batch_cost = 0;
  std::uint64_t admitted = 0;
  double encode_ms = 0, decode_ms = 0, response_bytes = 0;
  std::uint64_t responses = 0;
  double snapshot_ms = 0;
  std::uint64_t snapshots = 0, snapshot_bytes = 0;
  std::uint64_t failures = 0;
  std::string first_failure;
};

int cmd_replay(const std::map<std::string, std::string>& flags) {
  const std::string spec = need(flags, "graph");
  const std::uint64_t seed = std::stoull(need(flags, "seed"));
  const auto threads =
      static_cast<unsigned>(std::stoul(need(flags, "threads")));
  const bool paths = get(flags, "paths", "0") == "1";
  const std::string snapshot = get(flags, "snapshot", "");
  const std::string edge_file = get(flags, "edges", "");
  const bool traced = get(flags, "traced", "0") == "1";
  const std::vector<Phase> phases = read_batches(need(flags, "batches"));
  std::optional<Graph> edges;
  if (!edge_file.empty()) edges = read_edge_list_file(edge_file, 1);

  const Clock::time_point epoch = Clock::now();
  Spans spans(traced, epoch);
  ReplayTotals t;
  const auto timed = [&](const char* name, auto&& fn) {
    const Clock::time_point a = Clock::now();
    {
      ScopedSpan span(spans, name);
      fn();
    }
    return ms_between(a, Clock::now());
  };

  spans.begin("harness.replay");
  // Setup, in the order of `drw serve`: graph, diameter, Network, service.
  csr::LoadedGraph lg;
  const bool generator = spec.rfind("regular:", 0) == 0;
  t.graph_build_ms = timed("graph.build", [&] {
    if (generator) {
      // The CLI's generator spec: regular:N,D seeded from the program seed.
      const auto comma = spec.find(',');
      const auto n = static_cast<std::size_t>(std::stoull(spec.substr(8)));
      const auto d =
          static_cast<std::uint32_t>(std::stoul(spec.substr(comma + 1)));
      Rng rng(seed ^ 0xabcdef);
      lg.graph = gen::random_regular(n, d, rng);
    } else {
      lg = csr::load_graph(spec, threads);
    }
  });
  std::uint32_t diameter = 0;
  t.graph_diameter_ms = timed("graph.diameter", [&] {
    diameter = generator ? exact_diameter(lg.graph)
                         : double_sweep_diameter_estimate(lg.graph, 0);
  });
  std::optional<congest::Network> net;
  t.congest_init_ms = timed("congest.init", [&] { net.emplace(lg.graph, seed); });
  std::optional<service::WalkService> svc;
  {
    ScopedSpan span(spans, "service.init");
    service::ServiceConfig config;
    config.threads = threads;
    config.params = core::Params::paper();
    config.enable_paths = paths;
    config.graph_source = spec;
    svc.emplace(*net, diameter, config);
    obs::Registry::global().set_enabled(true);  // as with --stats-json
  }
  // The live server made the DRR decisions; a FIFO drain hands each logged
  // batch back whole and in its admitted order.
  service::AdmissionConfig admission;
  admission.policy = service::AdmissionPolicy::kFifo;
  service::AdmissionQueue queue{admission};
  const std::uint64_t user_nodes = lg.old_to_new.empty()
                                       ? lg.graph.node_count()
                                       : lg.old_to_new.size();

  const auto checkpoint = [&] {
    if (snapshot.empty() || !svc->engine().prepared() ||
        svc->engine().naive_mode()) {
      return;
    }
    t.snapshot_ms += timed("resil.snapshot", [&] { svc->save_snapshot(snapshot); });
    ++t.snapshots;
    t.snapshot_bytes = std::filesystem::file_size(snapshot);
  };

  std::int64_t batch_no = 0;
  for (const Phase& phase : phases) {
    ScopedSpan phase_span(spans, "harness.phase");
    // Simulated timeline of the serving thread: a batch drains once its
    // last request has arrived and the previous batch is done; serving
    // takes what it takes here. Open-loop requests arrive at their live send
    // time; a closed-loop one a live gap after the simulated response it
    // waited for, so a replay slower or faster than the live run does not
    // pile up or drain a queue the live server never had.
    double free_at = 0.0;
    std::map<std::uint64_t, double> responded_at;  // tag -> simulated time
    for (const std::vector<Request>& logged : phase) {
      ScopedSpan batch_span(spans, "harness.batch", batch_no);
      const Clock::time_point served = Clock::now();
      double drain_at = free_at;
      std::vector<double> arrival(logged.size());
      for (std::size_t i = 0; i < logged.size(); ++i) {
        const Request& req = logged[i];
        if (req.after < 0) {
          arrival[i] = req.due_ms;
        } else {
          const auto prev = responded_at.find(req.after);
          if (prev == responded_at.end()) fail("replay: closed loop out of order");
          arrival[i] = prev->second + req.gap_ms;
        }
        drain_at = std::max(drain_at, arrival[i]);
        std::optional<net::RequestFrame> wire;
        {
          ScopedSpan span(spans, "net.request", req.tag);
          const auto bytes = net::encode_request(to_frame(req));
          wire = net::decode_request(bytes.data(), bytes.size());
        }
        ScopedSpan span(spans, "admission.enqueue", req.tag);
        service::PendingRequest p;
        p.request.source = lg.to_internal(static_cast<NodeId>(wire->source));
        p.request.length = wire->length;
        p.request.count = wire->count;
        p.request.record_positions = wire->record;
        p.user_source = wire->source;
        p.tag = wire->tag;
        p.arrival_ms = arrival[i];
        if (p.request.source == kInvalidNode ||
            queue.enqueue(std::move(p)) != service::RequestStatus::kOk) {
          fail("replay request rejected before admission");
        }
      }
      std::vector<service::PendingRequest> batch;
      {
        std::vector<service::AdmissionReject> rejects;
        t.drain_ms += timed("admission.drain",
                            [&] { batch = queue.drain(drain_at, &rejects); });
        if (!rejects.empty() || batch.size() != logged.size()) {
          fail("replay batch differs from the logged batch");
        }
      }
      std::uint64_t cost = 0;
      for (const auto& p : batch) {
        t.queue_wait_ms += drain_at - p.arrival_ms;
        cost += p.cost;
      }
      t.batch_cost += static_cast<double>(cost);
      t.admitted += batch.size();

      service::BatchReport report;
      {
        const Clock::time_point a = Clock::now();
        ScopedSpan span(spans, "service.flush", batch_no);
        for (const auto& p : batch) svc->submit(p.request);
        report = svc->flush();
        spans.attribute("congest.run", report.stats.wall_ms, batch_no);
        t.flush_ms += ms_between(a, Clock::now());
      }
      checkpoint();

      ++t.batches;
      t.batch_requests += report.requests;
      t.run += report.stats;
      t.stitches += report.stitches;
      t.gmw_calls += report.engine_gmw_calls;
      t.inventory_hits += report.inventory_hits;
      t.full_prepares += report.full_prepare ? 1 : 0;
      t.replenishments += report.replenishments;
      t.mux_groups += report.mux_groups;
      t.mux_lanes += report.mux_lanes;
      t.mux_conflicts += report.mux_conflicts;

      for (std::size_t i = 0; i < batch.size(); ++i) {
        const service::PendingRequest& p = batch[i];
        const service::RequestResult& r = report.results[i];
        t.phase1 += r.counters.phase1;
        t.phase2 += r.counters.phase2;
        t.regen += r.counters.regen;
        t.walk_steps += static_cast<std::uint64_t>(r.request.count) *
                        r.request.length;
        std::vector<std::uint8_t> bytes;
        const Clock::time_point a = Clock::now();
        {
          ScopedSpan span(spans, "net.encode", static_cast<std::int64_t>(p.tag));
          net::ResponseFrame frame;
          frame.tag = p.tag;
          frame.admission_index = p.admission_index;
          frame.status = static_cast<std::uint8_t>(r.status);
          frame.record = p.request.record_positions;
          frame.destinations.reserve(r.destinations.size());
          for (NodeId d : r.destinations) {
            frame.destinations.push_back(lg.to_user(d));
          }
          frame.paths.reserve(r.paths.size());
          for (const auto& path : r.paths) {
            std::vector<std::uint32_t> user_path;
            user_path.reserve(path.size());
            for (NodeId node : path) user_path.push_back(lg.to_user(node));
            frame.paths.push_back(std::move(user_path));
          }
          bytes = net::encode_response(frame);
        }
        const Clock::time_point b = Clock::now();
        std::optional<net::ResponseFrame> decoded;
        {
          ScopedSpan span(spans, "net.decode", static_cast<std::int64_t>(p.tag));
          decoded = net::decode_response(bytes.data(), bytes.size());
        }
        t.encode_ms += ms_between(a, b);
        t.decode_ms += ms_between(b, Clock::now());
        t.response_bytes += static_cast<double>(bytes.size());
        ++t.responses;
        ScopedSpan span(spans, "harness.check", static_cast<std::int64_t>(p.tag));
        const std::string why =
            decoded ? check_response(logged[i], *decoded, user_nodes,
                                     edges ? &*edges : nullptr)
                    : "undecodable response";
        if (!why.empty() && t.failures++ == 0) {
          t.first_failure = "tag " + std::to_string(p.tag) + ": " + why;
        }
        responded_at[p.tag] = drain_at + ms_between(served, Clock::now());
      }
      free_at = drain_at + ms_between(served, Clock::now());
      ++batch_no;
    }
  }
  // WalkServer::join checkpoints once more on SIGTERM.
  checkpoint();
  spans.end();
  const double wall_ms = ms_between(epoch, Clock::now());

  // Per-layer self time: a span's duration minus what its children cover;
  // the layer is the span name's prefix. congest.run is a library-measured
  // child of service.flush (RunStats::wall_ms).
  std::map<std::string, double> self;
  const auto& all = spans.spans();
  std::vector<double> child(all.size(), 0.0);
  for (const auto& s : all) {
    if (s.parent >= 0) child[s.parent] += s.end_ms - s.start_ms;
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string layer = all[i].name.substr(0, all[i].name.find('.'));
    self[layer] += (all[i].end_ms - all[i].start_ms) - child[i];
  }
  if (traced) {
    const std::string out = get(flags, "spans", "");
    if (!out.empty()) {
      std::ofstream f(out);
      f << "# name start_ms end_ms parent request\n";
      for (const auto& s : all) {
        f << s.name << ' ' << s.start_ms << ' ' << s.end_ms << ' ' << s.parent
          << ' ' << s.request << '\n';
      }
    }
  }

  const auto div = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const double flush_self = t.flush_ms - t.run.wall_ms;
  const double attributed =
      t.phase1.wall_ms + t.phase2.wall_ms + t.regen.wall_ms;
  std::ostringstream j;
  j.precision(10);
  j << "{\"wall_ms\": " << wall_ms << ", \"spans\": " << all.size()
    << ", \"failures\": " << t.failures << ", \"first_failure\": \""
    << t.first_failure << "\", \"requests\": " << t.admitted
    << ", \"self_ms\": {";
  bool first = true;
  for (const auto& [layer, ms] : self) {
    j << (first ? "" : ", ") << '"' << layer << "\": " << ms;
    first = false;
  }
  j << "}, \"metrics\": {"
    << "\"graph.build_ms\": " << t.graph_build_ms
    << ", \"graph.diameter_ms\": " << t.graph_diameter_ms
    << ", \"congest.init_ms\": " << t.congest_init_ms
    << ", \"congest.run_ms\": " << t.run.wall_ms
    << ", \"congest.compute_ms\": " << t.run.compute_ms
    << ", \"congest.transmit_ms\": " << t.run.transmit_ms
    << ", \"congest.other_ms\": "
    << t.run.wall_ms - t.run.compute_ms - t.run.transmit_ms
    << ", \"congest.merge_cpu_ms\": " << t.run.merge_ms
    << ", \"congest.rounds\": " << t.run.rounds
    << ", \"congest.messages\": " << t.run.messages
    << ", \"congest.token_sends\": " << t.run.token_sends
    << ", \"congest.ns_per_message\": "
    << div(t.run.wall_ms * 1e6, static_cast<double>(t.run.messages))
    << ", \"core.phase1_ms\": " << t.phase1.wall_ms
    << ", \"core.phase1_messages\": " << t.phase1.messages
    << ", \"core.phase2_ms\": " << t.phase2.wall_ms
    << ", \"core.phase2_messages\": " << t.phase2.messages
    << ", \"core.stitches\": " << t.stitches
    << ", \"core.gmw_calls\": " << t.gmw_calls
    << ", \"core.tail_ms\": " << std::max(0.0, t.run.wall_ms - attributed)
    << ", \"core.ns_per_walk_step\": "
    << div(t.run.wall_ms * 1e6, static_cast<double>(t.walk_steps))
    << ", \"core.regen_ms\": " << t.regen.wall_ms
    << ", \"core.regen_rounds\": " << t.regen.rounds
    << ", \"service.flush_ms\": " << t.flush_ms
    << ", \"service.flush_self_ms\": " << flush_self
    << ", \"service.batches\": " << t.batches
    << ", \"service.batch_requests\": "
    << div(static_cast<double>(t.batch_requests), static_cast<double>(t.batches))
    << ", \"service.full_prepares\": " << t.full_prepares
    << ", \"service.replenishments\": " << t.replenishments
    << ", \"service.inventory_hit_rate\": "
    << (t.stitches == 0 ? 1.0
                        : static_cast<double>(t.inventory_hits) /
                              static_cast<double>(t.stitches))
    << ", \"service.mux_lanes_per_wave\": "
    << div(static_cast<double>(t.mux_lanes), static_cast<double>(t.mux_groups))
    << ", \"service.mux_conflicts\": " << t.mux_conflicts
    << ", \"admission.queue_wait_ms\": "
    << div(t.queue_wait_ms, static_cast<double>(t.admitted))
    << ", \"admission.drain_us\": "
    << div(t.drain_ms * 1e3, static_cast<double>(t.batches))
    << ", \"admission.batch_cost\": "
    << div(t.batch_cost, static_cast<double>(t.batches))
    << ", \"net.encode_us\": "
    << div(t.encode_ms * 1e3, static_cast<double>(t.responses))
    << ", \"net.decode_us\": "
    << div(t.decode_ms * 1e3, static_cast<double>(t.responses))
    << ", \"net.response_bytes\": "
    << div(t.response_bytes, static_cast<double>(t.responses))
    << ", \"resil.snapshot_ms\": "
    << div(t.snapshot_ms, static_cast<double>(t.snapshots))
    << ", \"resil.snapshot_bytes\": " << t.snapshot_bytes << "}}";
  std::printf("%s\n", j.str().c_str());
  return t.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) fail("usage: drwbench <graph|load|replay> --flag=value...");
  const std::string cmd = argv[1];
  try {
    if (cmd == "graph") return cmd_graph(parse_flags(argc, argv));
    if (cmd == "load") return cmd_load(parse_flags(argc, argv));
    if (cmd == "replay") return cmd_replay(parse_flags(argc, argv));
  } catch (const std::exception& e) {
    fail(e.what());
  }
  fail("unknown command " + cmd);
}
