#include "trace.h"

#include <cstdio>
#include <mutex>

namespace e2e {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_registry;  // g_registry_mu

thread_local ThreadTrace* t_local = nullptr;

std::atomic<uint64_t> g_magnetic_syncs{0};

const char* DevCallName(Role role, DevCall call) {
  static const char* const kNames[2][5] = {
      {"dev.magnetic.Read", "dev.magnetic.ReadMapped", "dev.magnetic.Write",
       "dev.magnetic.Sync", "dev.magnetic.Truncate"},
      {"dev.historical.Read", "dev.historical.ReadMapped",
       "dev.historical.Write", "dev.historical.Sync",
       "dev.historical.Truncate"}};
  return kNames[static_cast<int>(role)][static_cast<int>(call)];
}

/// Opens a recorded span under the thread's innermost open span. Returns
/// its index, or -1 when the buffer is full (the request then stops
/// recording; its already-kept spans stay).
int32_t OpenSpan(ThreadTrace* t, const char* name, uint64_t start) {
  if (t->spans.size() >= t->spans.capacity()) {
    t->recording = false;
    return -1;
  }
  const int32_t idx = static_cast<int32_t>(t->spans.size());
  t->spans.push_back(SpanRec{name, start, start, t->request, t->open_span});
  t->open_span = idx;
  return idx;
}

void CloseSpan(ThreadTrace* t, int32_t idx, uint64_t end) {
  if (idx < 0) return;
  t->spans[idx].end_ns = end;
  t->open_span = t->spans[idx].parent;
}

/// Times one device call made inside a traced op and folds it into the
/// calling thread's accumulators (and its recorded spans, inside a sampled
/// request). Calls outside a traced op are not timed.
template <typename Fn>
tsb::Status TimeDeviceCall(Role role, DevCall call, uint64_t bytes, Fn&& fn) {
  ThreadTrace* t = t_local;
  if (t == nullptr || !t->in_op) return fn();
  const uint64_t start = NowNs();
  const int32_t span =
      t->recording ? OpenSpan(t, DevCallName(role, call), start) : -1;
  tsb::Status s = fn();
  const uint64_t end = NowNs();
  CloseSpan(t, span, end);
  DevAcc& acc = t->dev[static_cast<int>(role)][static_cast<int>(call)];
  acc.calls++;
  acc.bytes += bytes;
  acc.ns += end - start;
  t->op_device_ns += end - start;
  return s;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kGet:
      return "db.Get";
    case Op::kWrite:
      return "db.Write";
    case Op::kScan:
      return "db.cursor.scan";
    case Op::kWalk:
      return "db.cursor.version_walk";
    case Op::kShardGet:
      return "shard.Get";
    case Op::kShardWrite:
      return "shard.Write";
    case Op::kNumOps:
      break;
  }
  return "?";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

ThreadTrace* Local() {
  if (t_local == nullptr) {
    auto t = std::make_unique<ThreadTrace>();
    t->spans.reserve(kSpanCapacity);
    std::lock_guard<std::mutex> lock(g_registry_mu);
    t->tid = static_cast<int>(g_registry.size());
    t_local = t.get();
    g_registry.push_back(std::move(t));
  }
  return t_local;
}

std::vector<const ThreadTrace*> AllThreads() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<const ThreadTrace*> out;
  for (const auto& t : g_registry) out.push_back(t.get());
  return out;
}

OpScope::OpScope(Op op, bool traced) : op_(op) {
  if (!traced) return;
  t_ = Local();
  const uint64_t seq = ++t_->requests;
  t_->request = (static_cast<uint64_t>(t_->tid) << 48) | seq;
  t_->op_device_ns = 0;
  t_->open_span = -1;
  t_->in_op = true;
  t_->recording = false;
  start_ = NowNs();
  if (seq % kSampleEvery == 0) {
    t_->sampled_requests++;
    t_->recording = true;
    span_ = OpenSpan(t_, OpName(op), start_);
    if (span_ < 0) t_->dropped_requests++;
  }
}

OpScope::~OpScope() {
  if (t_ == nullptr) return;
  const uint64_t end = NowNs();
  CloseSpan(t_, span_, end);
  t_->in_op = false;
  t_->recording = false;
  OpAcc& acc = t_->ops[static_cast<int>(op_)];
  acc.count++;
  acc.ns += end - start_;
  acc.device_ns += t_->op_device_ns;
  acc.entries += entries_;
}

CallScope::CallScope(const char* name) {
  ThreadTrace* t = t_local;
  if (t == nullptr || !t->recording) return;
  t_ = t;
  span_ = OpenSpan(t_, name, NowNs());
  if (span_ < 0) t_ = nullptr;
}

CallScope::~CallScope() {
  if (t_ != nullptr) CloseSpan(t_, span_, NowNs());
}

TracingDevice::TracingDevice(std::unique_ptr<tsb::Device> base, Role role)
    : Device(base->kind(), base->cost_params()),
      base_(std::move(base)),
      role_(role) {}

tsb::Status TracingDevice::Read(uint64_t offset, size_t n, char* scratch) {
  return TimeDeviceCall(role_, DevCall::kRead, n,
                        [&] { return base_->Read(offset, n, scratch); });
}

tsb::Status TracingDevice::Write(uint64_t offset, const tsb::Slice& data) {
  return TimeDeviceCall(role_, DevCall::kWrite, data.size(),
                        [&] { return base_->Write(offset, data); });
}

tsb::Status TracingDevice::ReadMapped(uint64_t offset, size_t n,
                                      tsb::MappedRead* out,
                                      tsb::AccessPattern pattern) {
  return TimeDeviceCall(role_, DevCall::kReadMapped, n, [&] {
    return base_->ReadMapped(offset, n, out, pattern);
  });
}

tsb::Status TracingDevice::Truncate(uint64_t size) {
  return TimeDeviceCall(role_, DevCall::kTruncate, 0,
                        [&] { return base_->Truncate(size); });
}

tsb::Status TracingDevice::Sync() {
  if (role_ == Role::kMagnetic) {
    g_magnetic_syncs.fetch_add(1, std::memory_order_relaxed);
  }
  return TimeDeviceCall(role_, DevCall::kSync, 0,
                        [&] { return base_->Sync(); });
}

uint64_t MagneticSyncs() {
  return g_magnetic_syncs.load(std::memory_order_relaxed);
}

Role RoleOf(const std::string& name) {
  const std::string suffix = "historical";
  if (name.size() >= suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return Role::kHistorical;
  }
  return Role::kMagnetic;
}

bool WriteChromeTrace(const std::string& path, const std::string& workload) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": "
             "{\"workload\": \"%s\", \"sample_every\": %u},\n"
             "\"traceEvents\": [\n",
          workload.c_str(), kSampleEvery);
  bool first = true;
  for (const ThreadTrace* t : AllThreads()) {
    fprintf(f, "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": %d, \"args\": {\"name\": \"client-%d\"}}",
            first ? "" : ",\n", t->tid, t->tid);
    first = false;
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRec& s = t->spans[i];
      fprintf(f,
              ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
              "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu, "
              "\"span\": %zu, \"parent\": %d}}",
              s.name, t->tid, static_cast<double>(s.start_ns) / 1000.0,
              static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
              static_cast<unsigned long long>(s.request), i, s.parent);
    }
  }
  fprintf(f, "\n]}\n");
  return fclose(f) == 0;
}

}  // namespace e2e
