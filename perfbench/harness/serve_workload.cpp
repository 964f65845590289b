// Serve workloads: serve_nullop and serve_apps.
//
// A real `spectra serve --record=WAL` daemon is spawned and driven by a
// closed loop of nproc - 1 connections (serve::BlockingClient), each waiting
// for its reply before sending the next request. Every connection runs a
// seeded script of sessions: connect, hello, register_app, a run of
// begin/end operations, close (the daemon parks the session). When
// --seconds have passed the loop stops at an operation boundary, the
// daemon is killed with SIGKILL and restarted with --resume on its WAL.
//
// The loop runs in twelve segments. Each segment moves the daemon and the
// connections one CPU on. After each one the daemon is restarted (timed)
// on a fixed prefix of the WAL, and two throwaway deployments time the
// set-up; restore and set-up metrics are the medians of those samples.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "apps/janus.h"
#include "apps/latex.h"
#include "apps/pangloss.h"
#include "common.h"
#include "scenario/app_service.h"
#include "scenario/experiment.h"
#include "scenario/world.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/record.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace sv = spectra::serve;
namespace sc = spectra::scenario;

constexpr const char* kScenario = "baseline";
constexpr const char* kApps[] = {"speech", "latex", "pangloss"};
// Sessions per connection whose decisions are recomputed in-process and
// folded into the connection digest on every run.
constexpr std::size_t kDigestSessions = 2;
// Traced-phase operations kept for the protocol and record measurements.
constexpr std::size_t kMaxRecords = 20'000;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Sessions per connection in the WAL prefix the timed restarts resume.
constexpr std::size_t kNullopRestoreSessions = 50;
constexpr std::size_t kAppsRestoreSessions = 10;
// Loop segments; one timed restart follows each, once the prefix exists.
// On a shared host the CPU's speed shifts by up to half within seconds, so
// the restarts are spread over the whole loop rather than bunched.
constexpr int kSegments = 12;
// Throwaway set-ups timed in each pause between segments; the median of
// all set-ups is reported.
constexpr int kSetupsPerPause = 2;

// ---- CPU placement -------------------------------------------------------------

// One CPU per thread: the single-threaded daemon gets the last CPU and each
// connection thread one of the others, so no thread of the benchmark ever
// preempts another. With five threads sharing four CPUs, run-to-run
// throughput on a 4-CPU host spread by a third. Each loop segment moves
// every thread one CPU on (Control::shift), and the timed restarts and
// set-ups rotate too, so a CPU slowed by other tenants of the host slows
// each role for part of the run rather than one role for all of it.
int daemon_cpu() { return static_cast<int>(nproc()) - 1; }

std::size_t connections() { return std::max<std::size_t>(1, nproc() - 1); }

void pin_to(int cpu) {
  if (nproc() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

// ---- spectra child processes ---------------------------------------------------

// A `spectra` process (a daemon, or a replay client) whose stdout the
// harness reads; it runs on `cpu`, or anywhere when `cpu` is negative.
class Child {
 public:
  Child(const std::string& bin, const std::vector<std::string>& args,
        int cpu) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The child must not outlive the harness, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (cpu >= 0) pin_to(cpu);
      ::dup2(fds[1], STDOUT_FILENO);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(bin.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
  }
  ~Child() {
    kill9();
    if (out_ >= 0) ::close(out_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // The daemon's next stdout line; throws when none arrives in time.
  std::string line(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return out;
      }
      const double left = deadline - now_s();
      if (left <= 0) throw std::runtime_error("daemon: no output in time");
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left * 1e3) + 1) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(out_, chunk, sizeof(chunk));
      if (n <= 0) throw std::runtime_error("daemon exited before reporting");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Waits for "spectra serve: listening on HOST:PORT" and returns PORT.
  std::uint16_t wait_listening(double timeout_s) {
    const std::string l = line(timeout_s);
    const auto colon = l.rfind(':');
    if (l.find("listening on") == std::string::npos ||
        colon == std::string::npos) {
      throw std::runtime_error("daemon: unexpected output: " + l);
    }
    return static_cast<std::uint16_t>(std::stoul(l.substr(colon + 1)));
  }

  // Peak resident set (VmHWM) in KiB.
  double vm_hwm_kib() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    double kib = 0;
    while (in >> key) {
      if (key == "VmHWM:") {
        in >> kib;
        break;
      }
    }
    return kib;
  }

  // Moves the process to `cpu`.
  void pin(int cpu) const {
    if (nproc() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(pid_, sizeof(set), &set);
  }

  // Waits for the process to exit and returns its exit status (-1 when a
  // signal ended it).
  int wait_exit() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  void kill9() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  std::string buf_;
};

// ---- seeded session scripts ---------------------------------------------------

struct Script {
  std::string app;
  std::vector<sv::BeginOpMsg> ops;
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool apps_workload(const Options& opt) { return opt.workload == "serve_apps"; }

// The world seed every session registers with: one trained template per
// app per daemon.
std::uint64_t world_seed(const Options& opt) {
  return 1 + splitmix(opt.seed) % 1000;
}

// Session `index` of connection `conn`: nullop, or the app mix of
// serve_apps when `apps` is set.
Script make_script(const Options& opt, bool apps, std::size_t conn,
                   std::size_t index) {
  spectra::util::Rng rng(splitmix(splitmix(opt.seed ^ (conn + 1)) + index));
  Script s;
  if (!apps) {
    s.app = "nullop";
    s.ops.resize(static_cast<std::size_t>(
        opt.tiny() ? rng.uniform_int(8, 24) : rng.uniform_int(48, 144)));
    return s;
  }
  const std::size_t app = (conn + index) % 3;
  s.app = kApps[app];
  const auto n = static_cast<std::size_t>(
      opt.tiny() ? rng.uniform_int(6, 12) : rng.uniform_int(100, 200));
  s.ops.resize(n);
  for (sv::BeginOpMsg& m : s.ops) {
    if (app == 0) m.params["utt_len"] = rng.uniform(1.0, 3.5);
    if (app == 1) m.data_tag = rng.bernoulli(0.5) ? "small" : "large";
    if (app == 2) m.params["words"] = static_cast<double>(rng.uniform_int(4, 44));
  }
  return s;
}

core::ServiceBeginRequest to_request(const sv::BeginOpMsg& m) {
  return {m.op, m.params, m.data_tag};
}

// ---- the closed loop --------------------------------------------------------------

struct SessionRecord {
  std::uint64_t sid = 0;
  std::size_t index = 0;  // script index within the connection
  std::string app;
  std::size_t ops_done = 0;
  std::uint64_t digest = spectra::util::kFnvOffset;
};

struct OpRecord {
  std::uint64_t sid = 0;
  sv::BeginOpMsg msg;
  core::ServiceDecision decision;
  core::ServiceOpResult result;
};

struct Conn {
  std::vector<SessionRecord> sessions;
  std::vector<double> op_ms;  // per begin+end pair; a failure counts as inf
  std::uint64_t begun = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed_in_phase[2] = {0, 0};
  double log_utility_sum = 0.0;
  std::vector<OpRecord> records;
  std::string error;
  Tracer::Buffer* buf = nullptr;
};

enum State : int { kRun = 0, kPause = 1, kStop = 2 };

// Paused threads block in atomic waits rather than polling, so no thread of
// the harness wakes while a restart is being timed.
struct Control {
  std::atomic<int> registered{0};
  std::atomic<int> gave_up{0};
  // Connection threads start paused; they pause and stop only at an
  // operation boundary.
  std::atomic<int> state{kPause};
  std::atomic<int> idle{0};  // threads paused or finished
  std::atomic<bool> traced{false};
  // Placement of the current segment: connection i runs on CPU
  // (i + shift) % nproc, the daemon on (nproc - 1 + shift) % nproc.
  std::atomic<int> shift{0};

  void set_state(State s) {
    state.store(s);
    state.notify_all();
  }
  void add_idle(int d) {
    idle.fetch_add(d);
    idle.notify_all();
  }
  // Blocks until all `n` connection threads are idle.
  void wait_idle(int n) {
    for (int v = idle.load(); v < n; v = idle.load()) idle.wait(v);
  }
};

// Counts the calling thread as idle while it lives.
class Idle {
 public:
  explicit Idle(Control& ctl) : ctl_(ctl) { ctl_.add_idle(1); }
  ~Idle() { ctl_.add_idle(-1); }
  Idle(const Idle&) = delete;
  Idle& operator=(const Idle&) = delete;

 private:
  Control& ctl_;
};

void run_connection(const Options& opt, std::uint16_t port, std::size_t ci,
                    Control& ctl, Conn& c, bool setup_only) {
  bool registered = false;
  pin_to(static_cast<int>((ci + ctl.shift.load()) % nproc()));
  try {
    std::size_t index = 0;
    Script script = make_script(opt, apps_workload(opt), ci, index);
    std::optional<sv::BlockingClient> client;
    auto open = [&] {
      client.emplace("127.0.0.1", port);
      const sv::HelloOkMsg hello = client->hello("perfbench");
      client->register_app(script.app, kScenario, world_seed(opt));
      c.sessions.push_back({hello.session_id, index, script.app});
    };
    open();
    registered = true;
    ctl.registered.fetch_add(1);
    if (setup_only) return;
    for (;;) {
      for (const sv::BeginOpMsg& msg : script.ops) {
        int state = ctl.state.load();
        if (state == kPause) {
          {
            Idle idle(ctl);
            while ((state = ctl.state.load()) == kPause) ctl.state.wait(kPause);
          }
          pin_to(static_cast<int>((ci + ctl.shift.load()) % nproc()));
        }
        if (state == kStop) return;
        const bool traced = ctl.traced.load();
        Tracer::Buffer* buf = traced ? c.buf : nullptr;
        const std::uint64_t id = (static_cast<std::uint64_t>(ci) << 48) | c.begun;
        ++c.begun;
        core::ServiceDecision d;
        core::ServiceOpResult r;
        const double t0 = now_s();
        {
          Scope op(buf, "serve.op", id);
          {
            Scope b(buf, "serve.begin_rtt", id);
            d = client->begin_op(msg);
          }
          {
            Scope e(buf, "serve.end_rtt", id);
            r = client->end_op();
          }
        }
        const double ms = (now_s() - t0) * 1e3;
        SessionRecord& rec = c.sessions.back();
        if (!d.ok || !r.ok) {
          ++c.failed;
          c.op_ms.push_back(kInf);
          c.error = "a reply was not ok";
          return;
        }
        c.op_ms.push_back(ms);
        ++c.completed;
        ++c.completed_in_phase[traced];
        c.log_utility_sum += d.log_utility;
        rec.digest = fold(fold(rec.digest, d), r);
        ++rec.ops_done;
        if (buf != nullptr && c.records.size() < kMaxRecords) {
          c.records.push_back({rec.sid, msg, d, r});
        }
      }
      client.reset();  // the daemon parks the finished session
      script = make_script(opt, apps_workload(opt), ci, ++index);
      open();
    }
  } catch (const std::exception& e) {
    // Transport errors, sheds and timeouts all end up here.
    if (registered) {
      ++c.failed;
      c.op_ms.push_back(kInf);
    } else {
      ctl.gave_up.fetch_add(1);
    }
    c.error = e.what();
  }
}

void connection_main(const Options& opt, std::uint16_t port, std::size_t ci,
                     Control& ctl, Conn& c, bool setup_only) {
  run_connection(opt, port, ci, ctl, c, setup_only);  // catches everything
  ctl.add_idle(1);
}

// A daemon recording to a WAL and nproc - 1 connections, each registered
// for its first session.
struct Deployment {
  std::unique_ptr<Child> daemon;
  std::vector<Conn> conns;
  std::unique_ptr<Control> ctl = std::make_unique<Control>();
  std::vector<std::jthread> threads;
  double setup_s = 0.0;  // spawn until every connection registered

  Deployment() = default;
  // The connection threads hold references to ctl and conns.
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { stop_connections(); }
  void stop_connections() {
    ctl->set_state(kStop);
    threads.clear();
  }
};

// Spawns a daemon on the CPUs of placement `shift` and connects; with
// `setup_only` the connection threads end once registered.
std::unique_ptr<Deployment> deploy(const Options& opt, const std::string& wal,
                                   int shift, bool setup_only, Tracer* tracer) {
  const std::size_t nconn = connections();
  auto d = std::make_unique<Deployment>();
  d->conns.resize(nconn);
  d->ctl->shift = shift % static_cast<int>(nproc());
  if (tracer != nullptr) {
    for (Conn& c : d->conns) c.buf = tracer->buffer();
  }
  const double t0 = now_s();
  d->daemon = std::make_unique<Child>(
      opt.spectra_bin,
      std::vector<std::string>{"serve", "--host=127.0.0.1", "--port=0",
                               "--record=" + wal},
      (daemon_cpu() + d->ctl->shift) % static_cast<int>(nproc()));
  const std::uint16_t port = d->daemon->wait_listening(60.0);
  for (std::size_t i = 0; i < nconn; ++i) {
    d->threads.emplace_back(connection_main, std::cref(opt), port, i,
                            std::ref(*d->ctl), std::ref(d->conns[i]),
                            setup_only);
  }
  while (d->ctl->registered.load() + d->ctl->gave_up.load() <
         static_cast<int>(nconn)) {
    if (now_s() - t0 > 120.0) throw std::runtime_error("serve: set-up hung");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  d->setup_s = now_s() - t0;
  if (d->ctl->gave_up.load() > 0) {
    throw std::runtime_error("serve: a connection failed to register: " +
                             d->conns[0].error + d->conns.back().error);
  }
  return d;
}

// ---- in-process replays ----------------------------------------------------------

std::unique_ptr<sc::World> app_world(const std::string& app,
                                     std::uint64_t seed) {
  if (app == "speech") {
    sc::SpeechExperiment::Config cfg;
    cfg.seed = seed;
    return sc::SpeechExperiment(cfg).session_world();
  }
  if (app == "latex") {
    sc::LatexExperiment::Config cfg;
    cfg.seed = seed;
    return sc::LatexExperiment(cfg).session_world();
  }
  sc::PanglossExperiment::Config cfg;
  cfg.seed = seed;
  return sc::PanglossExperiment(cfg).session_world();
}

// Drives one DecisionService session through `requests` and returns the
// digest of its decisions and results.
std::uint64_t replay_session(const core::ServiceFactory& factory,
                             const std::string& app, std::uint64_t seed,
                             const std::vector<core::ServiceBeginRequest>& requests,
                             Tracer::Buffer* buf, std::set<std::string>& built,
                             std::uint64_t sid) {
  std::unique_ptr<core::DecisionService> svc;
  {
    // The first session of an app in this process trains its template;
    // every later one clones it.
    Scope s(buf, built.insert(app).second ? "scenario.session_train"
                                          : "scenario.session_clone",
            sid);
    svc = factory(app, kScenario, seed);
  }
  std::uint64_t h = spectra::util::kFnvOffset;
  for (const core::ServiceBeginRequest& req : requests) {
    core::ServiceDecision d;
    core::ServiceOpResult r;
    {
      Scope s(buf, "service.begin_op", sid);
      d = svc->begin_op(req);
    }
    {
      Scope s(buf, "service.end_op", sid);
      r = svc->end_op();
    }
    h = fold(fold(h, d), r);
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The session a WAL line belongs to, if it names one.
std::optional<std::uint64_t> sid_of(const std::string& line) {
  const auto at = line.find("\"sid\":");
  if (at == std::string::npos) return std::nullopt;
  return std::stoull(line.substr(at + 6));
}

// Sessions the daemon closed before the crash (serve.close lifecycle lines,
// e.g. park evictions).
std::set<std::uint64_t> closed_sessions(const std::string& wal) {
  std::set<std::uint64_t> out;
  std::istringstream in(wal);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"serve.close\"") == std::string::npos) continue;
    if (const auto sid = sid_of(line)) out.insert(*sid);
  }
  return out;
}

// Repeats `body` over the records until at least 0.2 s have passed and
// returns microseconds per record.
template <typename Fn>
double per_record_us(std::size_t n, Fn body) {
  if (n == 0) return 0.0;
  std::size_t passes = 0;
  const double t0 = now_s();
  do {
    body();
    ++passes;
  } while (now_s() - t0 < 0.2);
  return (now_s() - t0) * 1e6 / static_cast<double>(passes * n);
}

// Per-app decision layers, timed around SpectraClient calls on a session
// world of each app, with the seeded serve_apps requests for that app (the
// run's own on serve_apps).
void measure_decisions(const Options& opt, Tracer& tracer, Result& result) {
  const std::size_t per_app = opt.tiny() ? 20 : 200;
  for (std::size_t a = 0; a < 3; ++a) {
    const std::string app = kApps[a];
    std::vector<sv::BeginOpMsg> msgs;
    for (std::size_t conn = 0; msgs.size() < per_app; ++conn) {
      for (std::size_t idx = 0; idx < 3 && msgs.size() < per_app; ++idx) {
        const Script s = make_script(opt, true, conn, idx);
        if (s.app != app) continue;
        for (const auto& m : s.ops) {
          if (msgs.size() < per_app) msgs.push_back(m);
        }
      }
    }
    std::unique_ptr<sc::World> world = app_world(app, world_seed(opt));
    auto& spectra = world->spectra();
    Tracer::Buffer* buf = tracer.buffer();
    double cache = 0, choose = 0, other = 0, evals = 0, memo = 0, cands = 0;
    for (const sv::BeginOpMsg& m : msgs) {
      spectra::core::OperationChoice choice;
      {
        Scope s(buf, "decision.begin", a);
        if (a == 0) {
          choice = spectra.begin_fidelity_op(spectra::apps::JanusApp::kOperation,
                                             m.params);
        } else if (a == 1) {
          choice = spectra.begin_fidelity_op(spectra::apps::LatexApp::kOperation,
                                             {}, m.data_tag);
        } else {
          choice = spectra.begin_fidelity_op(
              spectra::apps::PanglossApp::kOperation, m.params);
        }
      }
      {
        Scope s(buf, "apps.execute", a);
        if (a == 0) world->janus().execute(spectra, m.params.at("utt_len"));
        if (a == 1) world->latex().execute(spectra, m.data_tag);
        if (a == 2) {
          world->pangloss().execute(spectra,
                                    static_cast<int>(m.params.at("words")));
        }
      }
      {
        Scope s(buf, "decision.end_op", a);
        spectra.end_fidelity_op();
      }
      result.check(choice.ok, "decision: no feasible alternative for " + app);
      cache += choice.wall_cache_prediction;
      choose += choice.wall_choosing;
      other += choice.wall_other;
      evals += static_cast<double>(choice.evaluations);
      memo += static_cast<double>(choice.memo_hits);
      cands += static_cast<double>(choice.candidate_servers);
    }
    const double n = static_cast<double>(msgs.size());
    auto us = [&](const char* span) {
      return 1e6 * median(tracer.durations(span, a));
    };
    result.set("decision.begin_us." + app, us("decision.begin"), "us");
    result.set("decision.cache_prediction_us." + app, 1e6 * cache / n, "us");
    result.set("decision.choose_us." + app, 1e6 * choose / n, "us");
    result.set("decision.other_us." + app, 1e6 * other / n, "us");
    result.set("apps.execute_us." + app, us("apps.execute"), "us");
    result.set("decision.end_op_us." + app, us("decision.end_op"), "us");
    result.set("solver.evaluations." + app, evals / n, "count");
    result.set("solver.memo_hit_ratio." + app,
               memo + evals > 0 ? memo / (memo + evals) : 0.0, "ratio");
    result.set("core.candidate_servers." + app, cands / n, "count");
  }
}

// Re-encodes and decodes the traced phase's requests and replies, and
// re-renders their record lines.
void measure_wire(const std::vector<Conn>& conns, Result& result) {
  std::vector<const OpRecord*> recs;
  for (const Conn& c : conns) {
    for (const OpRecord& r : c.records) recs.push_back(&r);
  }
  std::size_t bytes = 0;
  const double encode_us = per_record_us(recs.size(), [&] {
    bytes = 0;
    for (const OpRecord* r : recs) {
      bytes += sv::encode_begin_op(r->msg).size();
      bytes += sv::encode_begin_ok(r->decision).size();
      bytes += sv::encode_end_op(r->result.seq).size();
      bytes += sv::encode_end_ok(r->result).size();
    }
  });
  std::vector<std::string> wire;
  for (const OpRecord* r : recs) {
    wire.push_back(sv::encode_begin_op(r->msg) +
                   sv::encode_begin_ok(r->decision) +
                   sv::encode_end_op(r->result.seq) +
                   sv::encode_end_ok(r->result));
  }
  std::uint64_t sink = 0;
  const double decode_us = per_record_us(recs.size(), [&] {
    for (const std::string& w : wire) {
      sv::FrameReader reader;
      reader.feed(w);
      sink += sv::decode_begin_op(reader.next()->payload).params.size();
      sink += sv::decode_begin_ok(reader.next()->payload).ok;
      sink += sv::decode_end_op(reader.next()->payload);
      sink += sv::decode_end_ok(reader.next()->payload).seq;
    }
  });
  std::size_t rendered = 0;
  const double render_us = per_record_us(recs.size(), [&] {
    for (const OpRecord* r : recs) {
      rendered += sv::render_begin_line(r->sid, r->result.seq, to_request(r->msg),
                                        r->decision).size();
      rendered += sv::render_end_line(r->sid, r->result.seq, r->result).size();
    }
  });
  result.check(sink > 0 && rendered > 0, "serve: no traced operations recorded");
  result.set("protocol.encode_us", encode_us, "us");
  result.set("protocol.decode_us", decode_us, "us");
  result.set("protocol.bytes_per_op",
             recs.empty() ? 0.0 : static_cast<double>(bytes) / recs.size(), "B");
  result.set("wal.render_us", render_us, "us");
}

struct Recovery {
  double seconds = 0.0;  // spawn until listening
  std::uint64_t sessions = 0;
  std::uint64_t ops = 0;
  std::uint16_t port = 0;
};

// Restarts a daemon with --resume on `wal`; returns it listening.
std::unique_ptr<Child> resume(const Options& opt, const std::string& wal,
                               int cpu, Recovery& out) {
  const double t0 = now_s();
  auto d = std::make_unique<Child>(
      opt.spectra_bin, std::vector<std::string>{"serve", "--host=127.0.0.1",
                                                "--port=0", "--resume=" + wal},
      cpu);
  out.port = d->wait_listening(150.0);
  out.seconds = now_s() - t0;
  const std::string line = d->line(10.0);
  unsigned long long sessions = 0, ops = 0;
  if (std::sscanf(line.c_str(),
                  "spectra serve: recovered %llu session(s), %llu op(s)",
                  &sessions, &ops) != 2) {
    throw std::runtime_error("resume: unexpected output: " + line);
  }
  out.sessions = sessions;
  out.ops = ops;
  return d;
}

// Writes the lines of `wal` that belong to the sessions in `sids`.
void write_prefix(const std::string& wal, const std::set<std::uint64_t>& sids,
                  const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::istringstream in(wal);
  std::string line;
  while (std::getline(in, line)) {
    const auto sid = sid_of(line);
    if (sid && sids.count(*sid)) out << line << '\n';
  }
}

// Writes the lines of `wal` into `n` files by session (sid % n; a line
// naming no session goes to every file) and returns their paths.
std::vector<std::string> split_by_session(const std::string& wal,
                                          std::size_t n,
                                          const std::string& stem) {
  std::vector<std::string> paths;
  std::vector<std::ofstream> outs;
  for (std::size_t i = 0; i < n; ++i) {
    paths.push_back(stem + std::to_string(i));
    outs.emplace_back(paths.back(), std::ios::binary | std::ios::trunc);
  }
  std::istringstream in(wal);
  std::string line;
  while (std::getline(in, line)) {
    if (const auto sid = sid_of(line)) {
      outs[*sid % n] << line << '\n';
    } else {
      for (std::ofstream& out : outs) out << line << '\n';
    }
  }
  return paths;
}

}  // namespace

void run_serve(const Options& opt, Tracer& tracer, Result& result) {
  namespace fs = std::filesystem;
  const std::string dir = opt.state_dir + "/serve";
  fs::create_directories(dir);
  const std::string wal =
      fs::absolute(dir + "/" + opt.workload + ".wal").string();
  const std::size_t nconn = connections();
  const std::string setup_wal = wal + ".setup";

  // ---- set-up ---------------------------------------------------------------------
  // The daemon that serves the measured loop gives one set-up sample; more
  // come from throwaway deployments between loop segments (below), so the
  // samples are spread over the run like the restarts.
  std::vector<double> setup_s;
  fs::remove(wal);
  std::unique_ptr<Deployment> loop =
      deploy(opt, wal, 0, false, opt.trace ? &tracer : nullptr);
  setup_s.push_back(loop->setup_s);
  std::vector<Conn>& conns = loop->conns;
  Control* ctl = loop->ctl.get();
  int setup_shift = 1;
  auto time_setups = [&] {
    for (int k = 0; k < kSetupsPerPause; ++k) {
      fs::remove(setup_wal);
      setup_s.push_back(
          deploy(opt, setup_wal, setup_shift++, true, nullptr)->setup_s);
    }
    fs::remove(setup_wal);
  };

  // ---- the measured closed loop -------------------------------------------------
  // The loop runs in segments; between them the connections pause and the
  // daemon is restarted (timed) on a prefix of the WAL, so restore samples
  // are spread over the run instead of bunched at its end. Traced runs
  // trace the middle third of the segments: the throughput gap between
  // traced and untraced segments is the tracing overhead.
  // The restarts resume each connection's first sessions: the same seeded
  // scripts on every run, so the work they time is fixed. The prefix is
  // cut after the first segment by whose end every connection has closed
  // that many sessions.
  const std::size_t prefix =
      opt.tiny() ? 3 : (apps_workload(opt) ? kAppsRestoreSessions
                                           : kNullopRestoreSessions);
  const std::string prefix_wal = wal + ".prefix";
  std::set<std::uint64_t> prefix_sids;
  std::uint64_t prefix_ops = 0;
  std::vector<double> restores;
  double loop_s = 0.0, seg_s[2] = {0.0, 0.0};
  // Each segment's op latency p99, from the operations it completed.
  std::vector<double> seg_p99;
  std::vector<std::size_t> seg_begin(nconn, 0);
  bool have_prefix = false;
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool traced = opt.trace && seg >= kSegments / 3 &&
                        seg < 2 * kSegments / 3;
    ctl->traced = traced;
    ctl->shift = seg % static_cast<int>(nproc());
    loop->daemon->pin((daemon_cpu() + ctl->shift) %
                      static_cast<int>(nproc()));
    const double t0 = now_s();
    ctl->set_state(kRun);
    while (now_s() < t0 + opt.seconds / kSegments) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ctl->set_state(kPause);
    ctl->wait_idle(static_cast<int>(nconn));
    std::vector<double> seg_ms;
    for (std::size_t i = 0; i < nconn; ++i) {
      const std::vector<double>& ms = conns[i].op_ms;
      seg_ms.insert(seg_ms.end(), ms.begin() + seg_begin[i], ms.end());
      seg_begin[i] = ms.size();
    }
    seg_p99.push_back(percentile(seg_ms, 99));
    loop_s += now_s() - t0;
    seg_s[traced] += now_s() - t0;
    time_setups();
    if (!have_prefix) {
      // Only closed sessions: their WAL lines and op counts are final.
      have_prefix = std::all_of(conns.begin(), conns.end(), [&](const Conn& c) {
        return c.sessions.size() > prefix;
      });
      if (!have_prefix) continue;
      for (const Conn& c : conns) {
        for (std::size_t k = 0; k < prefix; ++k) {
          prefix_sids.insert(c.sessions[k].sid);
          prefix_ops += c.sessions[k].ops_done;
        }
      }
      write_prefix(read_file(wal), prefix_sids, prefix_wal);
    }
    Recovery r;
    resume(opt, prefix_wal, seg % static_cast<int>(nproc()), r);
    restores.push_back(r.seconds);
    result.check(r.sessions == prefix_sids.size() && r.ops == prefix_ops,
                 "resume: the WAL prefix recovered " +
                     std::to_string(r.sessions) + " sessions and " +
                     std::to_string(r.ops) + " ops, expected " +
                     std::to_string(prefix_sids.size()) + " and " +
                     std::to_string(prefix_ops));
  }
  result.check(have_prefix, "serve: the loop was too short for every "
                            "connection to close " +
                                std::to_string(prefix) + " sessions");
  loop->stop_connections();
  result.accounting["restore_sessions"] = static_cast<double>(prefix_sids.size());
  result.accounting["restore_ops"] = static_cast<double>(prefix_ops);
  result.accounting["restores"] = static_cast<double>(restores.size());
  const double daemon_hwm_kib = loop->daemon->vm_hwm_kib();
  loop->daemon.reset();  // kill -9

  std::uint64_t completed = 0, sessions = 0;
  double log_util = 0.0;
  std::vector<double> op_ms;
  std::uint64_t in_phase[2] = {0, 0};
  for (const Conn& c : conns) {
    result.attempted += c.begun;
    result.failed += c.failed;
    completed += c.completed;
    sessions += c.sessions.size();
    log_util += c.log_utility_sum;
    op_ms.insert(op_ms.end(), c.op_ms.begin(), c.op_ms.end());
    in_phase[0] += c.completed_in_phase[0];
    in_phase[1] += c.completed_in_phase[1];
    result.check(c.failed == 0 && c.error.empty(),
                 "serve: an operation failed: " + c.error);
  }
  result.accounting["ops_attempted"] = static_cast<double>(result.attempted);
  result.accounting["ops_completed"] = static_cast<double>(completed);
  result.accounting["ops_failed"] = static_cast<double>(result.failed);
  result.accounting["sessions"] = static_cast<double>(sessions);
  result.check(completed > 0, "serve: no operation completed");

  // ---- kill -9 and --resume -------------------------------------------------------
  const std::string wal_text = read_file(wal);
  Recovery full;
  {
    const std::unique_ptr<Child> resumed = resume(opt, wal, -1, full);
    result.check(full.ops == completed,
                 "resume: daemon recovered " + std::to_string(full.ops) +
                     " ops, the run completed " + std::to_string(completed));
    result.check(full.sessions == sessions,
                 "resume: daemon recovered " + std::to_string(full.sessions) +
                     " sessions, the run opened " + std::to_string(sessions));
    if (opt.trace) {
      // The whole WAL, replayed over the wire by `spectra replay` (which
      // calls serve::run_replay) in session-disjoint parts at once: one
      // part at a time took longer than the loop, and so did threads of
      // this process calling run_replay.
      const std::vector<std::string> parts =
          split_by_session(wal_text, connections(), wal + ".part");
      std::vector<std::unique_ptr<Child>> replays;
      for (const std::string& part : parts) {
        replays.push_back(std::make_unique<Child>(
            opt.spectra_bin,
            std::vector<std::string>{"replay", part, "--host=127.0.0.1",
                                     "--port=" + std::to_string(full.port)},
            -1));
      }
      for (std::size_t i = 0; i < parts.size(); ++i) {
        const int code = replays[i]->wait_exit();
        result.check(code == 0, "resume: replay of WAL part " +
                                    std::to_string(i) +
                                    " against the resumed daemon exited " +
                                    std::to_string(code) +
                                    " (1: decisions diverged)");
        fs::remove(parts[i]);
      }
    }
  }

  // ---- decision streams -------------------------------------------------------------
  const core::ServiceFactory factory = sc::app_service_factory();
  std::set<std::string> built;
  std::map<std::uint64_t, std::uint64_t> replayed;  // sid -> digest
  if (opt.trace) {
    Tracer::Buffer* buf = tracer.buffer();
    std::vector<sv::ReplaySession> parsed;
    {
      Scope s(buf, "wal.parse");
      parsed = sv::parse_record(wal_text);
    }
    Scope s(buf, "wal.replay");
    for (const sv::ReplaySession& sess : parsed) {
      std::vector<core::ServiceBeginRequest> reqs;
      for (const sv::ReplayOp& op : sess.ops) reqs.push_back(op.request);
      replayed[sess.sid] = replay_session(factory, sess.app, sess.seed, reqs,
                                          buf, built, sess.sid);
    }
    const std::set<std::uint64_t> closed = closed_sessions(wal_text);
    result.set("wal.parse_s", median(tracer.durations("wal.parse")), "s");
    result.set("wal.sessions_replayed", static_cast<double>(parsed.size()),
               "count");
    result.set("wal.replay_waste",
               parsed.empty() ? 0.0
                              : static_cast<double>(closed.size()) /
                                    static_cast<double>(parsed.size()),
               "ratio");
  }
  Expectations expect(opt);
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    const Conn& c = conns[ci];
    std::uint64_t conn_digest = spectra::util::kFnvOffset;
    for (const SessionRecord& rec : c.sessions) {
      const bool digest_session = rec.index < kDigestSessions;
      std::uint64_t in_process = 0;
      if (opt.trace) {
        in_process = replayed[rec.sid];
      } else if (digest_session) {
        const Script s = make_script(opt, apps_workload(opt), ci, rec.index);
        std::vector<core::ServiceBeginRequest> reqs;
        for (std::size_t k = 0; k < rec.ops_done; ++k) reqs.push_back(to_request(s.ops[k]));
        in_process = replay_session(factory, rec.app, world_seed(opt), reqs,
                                    nullptr, built, rec.sid);
      } else {
        continue;
      }
      result.check(in_process == rec.digest,
                   "serve: session " + std::to_string(rec.sid) +
                       " decided differently over the wire than in-process");
      if (digest_session) {
        const std::size_t length =
            make_script(opt, apps_workload(opt), ci, rec.index).ops.size();
        result.check(rec.ops_done == length,
                     "serve: connection " + std::to_string(ci) +
                         " finished fewer than " +
                         std::to_string(kDigestSessions) + " sessions");
        conn_digest = spectra::util::fnv_mix(conn_digest, rec.digest);
      }
    }
    expect.expect(result, "conn" + std::to_string(ci) + ".digest",
                  hex(conn_digest));
  }
  expect.save(result);

  if (!opt.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", daemon_hwm_kib / 1024.0, "MiB");
    result.set("throughput_per_s", static_cast<double>(completed) / loop_s,
               "1/s");
    result.set("op_p50_ms", percentile(op_ms, 50), "ms");
    // The median of the segments' p99s: a burst of interference from other
    // tenants of a shared host that covered a tenth of a run raised the
    // whole run's p99 by more than half.
    result.set("op_p99_ms", median(seg_p99), "ms");
    // Median of the restarts, which rotate over the CPUs: on a shared host
    // one CPU can be slower than the others for seconds, and the best
    // restart depended on whether one had been quiet.
    result.set("restore_s", restores.empty() ? kInf : median(restores), "s");
    result.set("quality", std::exp(log_util / static_cast<double>(completed)),
               "score");
    return;
  }

  // ---- per-layer ---------------------------------------------------------------
  const double untraced_rate = static_cast<double>(in_phase[0]) / seg_s[0];
  const double traced_rate = static_cast<double>(in_phase[1]) / seg_s[1];
  result.tracing_overhead = 1.0 - traced_rate / untraced_rate;

  auto us = [&](const char* span, double p) {
    std::vector<double> d = tracer.durations(span);
    return 1e6 * percentile(d, p);
  };
  result.set("serve.begin_rtt_us_p50", us("serve.begin_rtt", 50), "us");
  result.set("serve.begin_rtt_us_p99", us("serve.begin_rtt", 99), "us");
  result.set("serve.end_rtt_us_p50", us("serve.end_rtt", 50), "us");
  result.set("serve.end_rtt_us_p99", us("serve.end_rtt", 99), "us");
  const double service_us =
      us("service.begin_op", 50) + us("service.end_op", 50);
  result.set("service.begin_op_us", us("service.begin_op", 50), "us");
  result.set("service.end_op_us", us("service.end_op", 50), "us");
  result.set("serve.transport_share", 1.0 - service_us / us("serve.op", 50),
             "ratio");
  result.set("serve.sessions", static_cast<double>(sessions), "count");
  result.set("serve.ops", static_cast<double>(completed), "count");
  result.set("scenario.session_train_s",
             median(tracer.durations("scenario.session_train")), "s");
  result.set("scenario.session_clone_ms",
             1e3 * median(tracer.durations("scenario.session_clone")), "ms");
  result.set("wal.replay_s", median(tracer.durations("wal.replay")), "s");
  result.set("wal.bytes_per_op",
             static_cast<double>(wal_text.size()) / static_cast<double>(completed),
             "B");
  measure_wire(conns, result);
  measure_decisions(opt, tracer, result);
}

}  // namespace perfbench
