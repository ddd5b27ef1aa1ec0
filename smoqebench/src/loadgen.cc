// Deployment (engine + TAX + views + smoqed on loopback), the blocking
// wire client, and the traffic generators of the workloads.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>

#include "bench.h"
#include "src/workload/workloads.h"

namespace smoqebench {

using namespace smoqe;
namespace wire = smoqe::server;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Seconds(Clock::time_point t) {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(t - origin).count();
}

std::vector<double> Latencies(const std::vector<Timed>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Timed& t : v) out.push_back(t.ms);
  return out;
}

namespace {
void ByCompletion(std::vector<Timed>* v) {
  std::sort(v->begin(), v->end(),
            [](const Timed& a, const Timed& b) { return a.at_s < b.at_s; });
}
}  // namespace

double WindowedQuantile(std::vector<Timed> v, double q, size_t per_window) {
  if (v.empty()) return 0;
  ByCompletion(&v);
  const size_t k = std::max<size_t>(1, v.size() / per_window);
  std::vector<double> per;
  for (size_t w = 0; w < k; ++w) {
    const size_t lo = v.size() * w / k, hi = v.size() * (w + 1) / k;
    std::vector<double> window;
    for (size_t i = lo; i < hi; ++i) window.push_back(v[i].ms);
    per.push_back(Quantile(std::move(window), q));
  }
  return Median(std::move(per));
}

double WindowedRate(std::vector<Timed> v, double start_s, size_t per_window) {
  if (v.empty()) return 0;
  ByCompletion(&v);
  const size_t k = std::max<size_t>(1, v.size() / per_window);
  std::vector<double> per;
  double from = start_s;
  for (size_t w = 0; w < k; ++w) {
    const size_t lo = v.size() * w / k, hi = v.size() * (w + 1) / k;
    const double to = v[hi - 1].at_s;
    if (to > from) per.push_back(static_cast<double>(hi - lo) / (to - from));
    from = to;
  }
  return Median(std::move(per));
}

double GroupedMean(std::vector<Timed> v, size_t group) {
  ByCompletion(&v);
  std::vector<double> per;
  for (size_t lo = 0; lo + group <= v.size(); lo += group) {
    double sum = 0;
    for (size_t i = lo; i < lo + group; ++i) sum += v[i].ms;
    per.push_back(sum / static_cast<double>(group));
  }
  return Median(std::move(per));
}

void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "smoqe_bench: %s\n", what.c_str());
  std::exit(1);
}

Sizing DefaultSizing() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int n = static_cast<int>(std::max(2u, std::min(4u, hw == 0 ? 4u : hw)));
  return Sizing{n, n, n};
}

int ReaderThreads(const Inputs& in, const Sizing& sz) {
  // A batch already fans out over the engine pool; two batch clients keep
  // the cores busy without queueing four scans behind one another.
  if (in.workload == Workload::kStreamBatch) return std::min(2, sz.client_threads);
  return sz.client_threads - (in.workload == Workload::kRwMix ? 1 : 0);
}

// ---------------------------------------------------------------------
// Wire client
// ---------------------------------------------------------------------

Wire::Wire(uint16_t port, const std::string& role)
    : frames_(wire::kDefaultMaxResponseFrame) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) Fail(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail(std::string("connect: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Abortive close: the traced run reconnects whenever the sampled role
  // changes, and those connections must not pile up in TIME_WAIT across
  // back-to-back runs.
  linger lg{1, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  wire::HelloRequest hello;
  hello.role = role;
  wire::RawFrame f = Call(wire::Encode(hello));
  auto r = wire::DecodeHelloResponse(f.body);
  if (f.opcode != static_cast<uint8_t>(wire::Opcode::kHelloOk) || !r.ok() ||
      r->code != wire::WireCode::kOk) {
    Fail("handshake rejected for role '" + role + "'");
  }
}

Wire::~Wire() {
  if (fd_ >= 0) ::close(fd_);
}

wire::RawFrame Wire::Call(const std::string& frame) {
  for (size_t off = 0; off < frame.size();) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fail(std::string("send: ") + std::strerror(errno));
    off += static_cast<size_t>(n);
  }
  char buf[1 << 16];
  for (;;) {
    if (std::optional<wire::RawFrame> f = frames_.Next()) return std::move(*f);
    if (frames_.overflow()) Fail("response frame over the client bound");
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fail("connection closed by the server");
    frames_.Append(std::string_view(buf, static_cast<size_t>(n)));
  }
}

// ---------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------

Deployment::~Deployment() {
  if (server != nullptr) server->Stop();
  server.reset();
  engine.reset();
}

std::unique_ptr<Deployment> SetUp(const Inputs& in, const Sizing& sz,
                                  double* seconds) {
  const auto t0 = Clock::now();
  auto dep = std::make_unique<Deployment>();
  core::EngineOptions eo;
  eo.max_threads = sz.pool_threads;
  eo.plan_cache_capacity = kPlanCacheCapacity;
  dep->engine = std::make_unique<core::Smoqe>(eo);
  core::Smoqe& e = *dep->engine;
  Status st = e.RegisterDtd("hospital", workload::kHospitalDtd, "hospital");
  if (st.ok()) st = e.LoadDocument("ward", in.doc_text);
  if (st.ok()) st = e.BuildIndex("ward");
  for (size_t i = 0; st.ok() && i < in.roles.size(); ++i) {
    st = e.DefineView(in.roles[i].name, "hospital", in.roles[i].policy);
  }
  if (!st.ok()) Fail("set-up: " + st.ToString());
  wire::ServerOptions so;
  so.workers = sz.server_workers;
  dep->server = std::make_unique<wire::Server>(dep->engine.get(), so);
  st = dep->server->Start();
  if (!st.ok()) Fail("server start: " + st.ToString());
  { Wire first(dep->server->port(), in.roles[in.writer_role].name); }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return dep;
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

void LoadResult::Merge(const LoadResult& o) {
  reads_t.insert(reads_t.end(), o.reads_t.begin(), o.reads_t.end());
  writes_t.insert(writes_t.end(), o.writes_t.begin(), o.writes_t.end());
  late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
  reads += o.reads;
  writes += o.writes;
  answers += o.answers;
  failed += o.failed;
  mismatches += o.mismatches;
  accepted += o.accepted;
  rejected += o.rejected;
  for (const std::string& e : o.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

namespace {

std::atomic<uint64_t> g_request_ids{1};

/// A rw_mix reply, checked against the oracle once every epoch's state
/// is known.
struct PendingCheck {
  int role = 0;
  int query = 0;
  uint64_t epoch = 0;
  Digest got;
};

int64_t NsSinceOrigin(Clock::time_point t) {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
}

void Note(LoadResult* r, std::string what) {
  ++r->failed;
  if (r->errors.size() < 5) r->errors.push_back(std::move(what));
}

/// One read client: owns its connection(s), RNG and samples.
class Reader {
 public:
  Reader(const Inputs& in, const Oracle& oracle, uint16_t port,
         std::vector<int> roles, uint64_t rng_seed, const LoadOptions& opt)
      : in_(in), oracle_(oracle), port_(port), roles_(std::move(roles)),
        rng_(rng_seed), opt_(opt) {}

  /// Closed loop until `end`.
  void Run(Clock::time_point end) {
    // One connection per role this client speaks for; requests rotate.
    std::vector<std::unique_ptr<Wire>> conns;
    for (int role : roles_) {
      conns.push_back(std::make_unique<Wire>(port_, in_.roles[role].name));
    }
    for (size_t turn = 0;; ++turn) {
      const Clock::time_point sent = Clock::now();
      if (sent >= end) break;
      // The client's own turnaround from the previous reply to this send.
      if (last_reply_ != Clock::time_point()) {
        out.late_ms.push_back(MsBetween(last_reply_, sent));
      }
      const size_t k = turn % roles_.size();
      const int role = roles_[k];
      if (in_.workload == Workload::kStreamBatch) {
        Batch(*conns[k], role, sent);
      } else {
        Query(*conns[k], role, static_cast<int>(rng_() % in_.queries[role].size()),
              sent);
      }
    }
  }

  LoadResult out;
  std::vector<PendingCheck> pending;  // rw_mix: checked once epochs are known
  std::vector<Span> spans;

 private:
  Span* Begin(uint64_t request, const char* name, uint64_t parent) {
    if (opt_.spans == nullptr) return nullptr;
    Span s;
    s.request = request;
    s.id = g_request_ids.fetch_add(1);
    s.parent = parent;
    s.name = name;
    s.start_ns = NsSinceOrigin(Clock::now());
    spans.push_back(std::move(s));
    return &spans.back();
  }
  void End(size_t index) {
    if (opt_.spans != nullptr) spans[index].end_ns = NsSinceOrigin(Clock::now());
  }

  /// Sends one frame, optionally under roundtrip/encode/decode spans.
  /// `encode` builds the frame; `decode` consumes the response.
  template <typename EncodeFn, typename DecodeFn>
  void Traced(Wire& conn, EncodeFn encode, DecodeFn decode) {
    const uint64_t req = g_request_ids.fetch_add(1);
    size_t root = spans.size();
    Span* r = Begin(req, "server.roundtrip", 0);
    const uint64_t root_id = r ? r->id : 0;
    size_t enc = spans.size();
    Begin(req, "server.encode", root_id);
    std::string frame = encode();
    End(enc);
    wire::RawFrame f = conn.Call(frame);
    last_reply_ = Clock::now();
    size_t dec = spans.size();
    Begin(req, "server.decode", root_id);
    decode(f);
    End(dec);
    End(root);
  }

  void Query(Wire& conn, int role, int q, Clock::time_point sent) {
    wire::QueryRequest req;
    req.doc = "ward";
    req.query = in_.queries[role][q];
    req.use_tax = static_cast<uint8_t>(rng_() & 1);
    Traced(
        conn, [&] { return wire::Encode(req); },
        [&](const wire::RawFrame& f) {
          const Clock::time_point done = Clock::now();
          auto resp = wire::DecodeQueryResponse(f.body);
          ++out.reads;
          out.reads_t.push_back({Seconds(done), MsBetween(sent, done)});
          if (!resp.ok() || resp->code != wire::WireCode::kOk) {
            Note(&out, "query failed: " + req.query + ": " +
                           (resp.ok() ? resp->error : resp.status().ToString()));
            return;
          }
          Digest d;
          for (const std::string& a : resp->answers_xml) d.Add(a);
          out.answers += d.count;
          Check(role, q, resp->doc_epoch, d);
        });
  }

  void Batch(Wire& conn, int role, Clock::time_point sent) {
    wire::QueryBatchRequest req;
    req.doc = "ward";
    std::vector<int> qs;
    for (int i = 0; i < kBatchItems; ++i) {
      const int q = static_cast<int>(rng_() % in_.queries[role].size());
      qs.push_back(q);
      wire::BatchItem item;
      item.query = in_.queries[role][q];
      item.mode = wire::WireEvalMode::kStax;
      req.items.push_back(std::move(item));
    }
    Traced(
        conn, [&] { return wire::Encode(req); },
        [&](const wire::RawFrame& f) {
          const Clock::time_point done = Clock::now();
          auto resp = wire::DecodeQueryBatchResponse(f.body);
          ++out.reads;
          out.reads_t.push_back({Seconds(done), MsBetween(sent, done)});
          if (!resp.ok() || resp->code != wire::WireCode::kOk ||
              resp->items.size() != qs.size()) {
            Note(&out, "batch failed: " +
                           (resp.ok() ? resp->error : resp.status().ToString()));
            return;
          }
          for (size_t i = 0; i < qs.size(); ++i) {
            const wire::BatchItemResult& item = resp->items[i];
            if (item.code != wire::WireCode::kOk) {
              Note(&out, "batch item failed: " + item.error);
              continue;
            }
            Digest d;
            for (const std::string& a : item.answers_xml) d.Add(a);
            out.answers += d.count;
            Check(role, qs[i], item.doc_epoch, d);
          }
        });
  }

  void Check(int role, int q, uint64_t epoch, const Digest& d) {
    if (in_.workload == Workload::kRwMix) {
      pending.push_back({role, q, epoch, d});
    } else if (!(d == oracle_.expected[0][role][q])) {
      ++out.mismatches;
      Note(&out, "answer mismatch: role " + in_.roles[role].name + ": " +
                     in_.queries[role][q]);
    }
  }

  const Inputs& in_;
  const Oracle& oracle_;
  uint16_t port_;
  std::vector<int> roles_;
  std::mt19937_64 rng_;
  const LoadOptions& opt_;
  Clock::time_point last_reply_;
};

/// Sends the next update of the cycle and checks its outcome.
void WriteOne(const Inputs& in, Wire& conn, RunState* rs, LoadResult* out) {
  size_t pos;
  {
    std::lock_guard<std::mutex> lock(rs->mu);
    pos = rs->writer_pos++;
  }
  const UpdateOp& op = in.writer_cycle[pos % in.writer_cycle.size()];
  wire::UpdateRequest req;
  req.doc = "ward";
  req.statement = op.stmt;
  const Clock::time_point t0 = Clock::now();
  wire::RawFrame f = conn.Call(wire::Encode(req));
  const Clock::time_point done = Clock::now();
  out->writes_t.push_back({Seconds(done), MsBetween(t0, done)});
  ++out->writes;
  auto resp = wire::DecodeUpdateResponse(f.body);
  if (!resp.ok()) {
    Note(out, "update response undecodable: " + resp.status().ToString());
    return;
  }
  if (op.expect_accept) {
    if (resp->code != wire::WireCode::kOk) {
      Note(out, "update refused: " + resp->error + ": " + op.stmt);
      return;
    }
    ++out->accepted;
    std::lock_guard<std::mutex> lock(rs->mu);
    rs->epoch_state[resp->doc_epoch] = op.state_after;
  } else if (resp->code == wire::WireCode::kPermissionDenied) {
    ++out->rejected;
  } else {
    Note(out, std::string("update not rejected (") +
                  wire::WireCodeName(resp->code) + "): " + op.stmt);
  }
}

}  // namespace

LoadResult RunLoad(const Inputs& in, const Oracle& oracle,
                   const Deployment& dep, const Sizing& sz,
                   const LoadOptions& opt, RunState* rs) {
  const uint16_t port = dep.server->port();
  const int nreaders = ReaderThreads(in, sz);
  std::vector<std::unique_ptr<Reader>> readers;
  for (int i = 0; i < nreaders; ++i) {
    // Reader i speaks for roles i, i + nreaders, ... of reader_roles.
    std::vector<int> roles;
    for (size_t r = static_cast<size_t>(i); r < in.reader_roles.size();
         r += static_cast<size_t>(nreaders)) {
      roles.push_back(in.reader_roles[r]);
    }
    readers.push_back(std::make_unique<Reader>(
        in, oracle, port, std::move(roles),
        in.seed * 7919 + opt.stream * 131 + static_cast<uint64_t>(i), opt));
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  std::vector<std::thread> threads;
  for (auto& r : readers) {
    Reader* rp = r.get();
    threads.emplace_back([rp, end] { rp->Run(end); });
  }
  LoadResult writer;
  if (opt.writer) {
    threads.emplace_back([&] {
      Wire conn(port, in.roles[in.writer_role].name);
      while (Clock::now() < end) WriteOne(in, conn, rs, &writer);
    });
  }
  for (std::thread& t : threads) t.join();

  LoadResult out;
  out.start_s = Seconds(start);
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  out.Merge(writer);
  std::lock_guard<std::mutex> lock(rs->mu);
  for (auto& r : readers) {
    out.Merge(r->out);
    for (const PendingCheck& c : r->pending) {
      auto it = rs->epoch_state.find(c.epoch);
      if (it == rs->epoch_state.end()) {
        ++out.mismatches;
        Note(&out, "reply at unknown epoch " + std::to_string(c.epoch));
      } else if (!(c.got == oracle.expected[it->second][c.role][c.query])) {
        ++out.mismatches;
        Note(&out, "answer mismatch at epoch " + std::to_string(c.epoch) +
                       ": role " + in.roles[c.role].name + ": " +
                       in.queries[c.role][c.query]);
      }
    }
    if (opt.spans != nullptr) {
      opt.spans->insert(opt.spans->end(), r->spans.begin(), r->spans.end());
    }
  }
  return out;
}

LoadResult RunWriteProbe(const Inputs& in, const Deployment& dep,
                         int min_updates, double min_seconds, RunState* rs) {
  LoadResult out;
  Wire conn(dep.server->port(), in.roles[in.writer_role].name);
  const Clock::time_point t0 = Clock::now();
  out.start_s = Seconds(t0);
  const int cycle = static_cast<int>(in.writer_cycle.size());
  for (int i = 0; i < min_updates || MsSince(t0) < min_seconds * 1e3 ||
                  i % cycle != 0;
       ++i) {
    WriteOne(in, conn, rs, &out);
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace smoqebench
