#include "obs/trace_context.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace silofuse {
namespace obs {

namespace {

// Pack layout (LSB first): run_id:24 | round:16 | silo+1:8 | tag_id:8.
constexpr uint64_t kRunIdMask = (uint64_t{1} << 24) - 1;
constexpr int kRoundShift = 24;
constexpr int kSiloShift = 40;
constexpr int kTagShift = 48;

struct InternTable {
  std::mutex mu;
  // Deque-like stability: strings are heap-allocated once and never moved.
  std::vector<std::unique_ptr<std::string>> entries;
  std::map<std::string, const char*> by_content;
  std::map<const char*, uint8_t> id_by_ptr;  // 1-based; absent = no small id
};

InternTable* Interned() {
  // Leaky: interned pointers live inside event rings that are flushed at
  // process exit, after static destruction may have begun.
  static auto* table = new InternTable();
  return table;
}

thread_local TraceContext tls_context;

}  // namespace

uint64_t TraceContext::Pack() const {
  uint64_t word = static_cast<uint64_t>(run_id) & kRunIdMask;
  const uint64_t bounded_round = static_cast<uint64_t>(
      round < 0 ? 0 : (round > 0xFFFF ? 0xFFFF : round));
  word |= bounded_round << kRoundShift;
  const int64_t silo_plus_one = static_cast<int64_t>(silo_id) + 1;
  word |= static_cast<uint64_t>(
              silo_plus_one < 0 || silo_plus_one > 0xFE ? 0 : silo_plus_one)
          << kSiloShift;
  word |= static_cast<uint64_t>(tag == nullptr ? 0 : TraceStringId(tag))
          << kTagShift;
  return word;
}

TraceContext TraceContext::Unpack(uint64_t word) {
  TraceContext ctx;
  ctx.run_id = static_cast<uint32_t>(word & kRunIdMask);
  ctx.round = static_cast<int32_t>((word >> kRoundShift) & 0xFFFF);
  ctx.silo_id = static_cast<int32_t>((word >> kSiloShift) & 0xFF) - 1;
  ctx.tag = TraceStringById(static_cast<uint8_t>((word >> kTagShift) & 0xFF));
  return ctx;
}

const char* InternTraceString(const std::string& s) {
  InternTable* table = Interned();
  std::lock_guard<std::mutex> lock(table->mu);
  auto it = table->by_content.find(s);
  if (it != table->by_content.end()) return it->second;
  table->entries.push_back(std::make_unique<std::string>(s));
  const char* ptr = table->entries.back()->c_str();
  table->by_content[s] = ptr;
  if (table->entries.size() <= 0xFF) {
    table->id_by_ptr[ptr] = static_cast<uint8_t>(table->entries.size());
  }
  return ptr;
}

uint8_t TraceStringId(const char* interned) {
  if (interned == nullptr) return 0;
  InternTable* table = Interned();
  std::lock_guard<std::mutex> lock(table->mu);
  auto it = table->id_by_ptr.find(interned);
  return it == table->id_by_ptr.end() ? 0 : it->second;
}

const char* TraceStringById(uint8_t id) {
  if (id == 0) return nullptr;
  InternTable* table = Interned();
  std::lock_guard<std::mutex> lock(table->mu);
  if (id > table->entries.size()) return nullptr;
  return table->entries[id - 1]->c_str();
}

uint32_t NextTraceRunId() {
  static std::atomic<uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

const TraceContext& CurrentTraceContext() { return tls_context; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : saved_(tls_context) {
  tls_context = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { tls_context = saved_; }

ContextSpan::ContextSpan(const char* name, const char* party)
    : ContextSpan(name, party, tls_context) {}

ContextSpan::ContextSpan(const char* name, const char* party,
                         const TraceContext& ctx) {
  if (TraceEnabled()) {
    name_ = name;
    party_ = party;
    packed_ctx_ = ctx.Pack();
    start_ns_ = internal_trace::NowNs();
  }
}

ContextSpan::~ContextSpan() {
  if (name_ != nullptr) {
    internal_trace::RecordSpan(name_, start_ns_, internal_trace::NowNs(),
                               packed_ctx_, party_);
  }
}

void RecordTransferFlow(const char* name, uint64_t flow_id, bool start,
                        const char* party) {
  if (!TraceEnabled()) return;
  internal_trace::RecordFlowEvent(name, flow_id, start, party);
}

uint64_t NextFlowId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace obs
}  // namespace silofuse
