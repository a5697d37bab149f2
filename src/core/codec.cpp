#include "core/codec.hpp"

#include <array>

#include "baselines/payloads.hpp"
#include "util/assert.hpp"
#include "util/pool.hpp"

namespace mck::core {

namespace {

void put_trigger(WireWriter& w, const Trigger& t) {
  w.zz32(static_cast<std::int32_t>(t.pid));
  w.vu32(t.inum);
}

Trigger get_trigger(WireReader& r) {
  Trigger t;
  t.pid = static_cast<ProcessId>(r.zz32());
  t.inum = r.vu32();
  return t;
}

void put_weight(WireWriter& w, const util::Weight& weight) {
  w.u64(weight.integer_part());
  const auto frac = weight.raw_fraction();
  MCK_ASSERT(frac.size() <= UINT16_MAX);
  w.u16(static_cast<std::uint16_t>(frac.size()));
  for (std::uint64_t limb : frac) w.u64(limb);
}

util::Weight get_weight(WireReader& r) {
  std::uint64_t integer = r.u64();
  std::uint16_t n = r.u16();
  util::Weight::Limbs frac;
  frac.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) frac.push_back(r.u64());
  return util::Weight::from_raw(integer, std::move(frac));
}

// Delta-encoded interval set: universe size, interval count, then for each
// interval the gap from the previous interval's hi (absolute lo for the
// first) and the length. A dependency set over 1M hosts costs bytes
// proportional to its *intervals*, not to the universe; the dense bitmap
// form this replaces was n/8 bytes on every reply and commit.
void put_iset(WireWriter& w, const util::IntervalSet& v) {
  w.vu64(v.size());
  w.vu64(v.intervals().size());
  std::uint32_t prev_hi = 0;
  for (const util::IntervalSet::Interval& iv : v.intervals()) {
    w.vu32(iv.lo - prev_hi);
    w.vu32(iv.hi - iv.lo);
    prev_hi = iv.hi;
  }
}

util::IntervalSet get_iset(WireReader& r) {
  const std::uint64_t n = r.vu64();
  const std::uint64_t count = r.vu64();
  util::IntervalSet v(static_cast<std::size_t>(n));
  if (!r.ok() || n > UINT32_MAX) {
    r.fail();
    return v;
  }
  std::uint64_t prev_hi = 0;
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    const std::uint64_t lo = prev_hi + r.vu32();
    const std::uint64_t hi = lo + r.vu32();
    if (!r.ok()) break;
    if (hi > n || !v.append_interval(static_cast<std::uint32_t>(lo),
                                     static_cast<std::uint32_t>(hi))) {
      r.fail();
      break;
    }
    prev_hi = hi;
  }
  return v;
}

// Delta-encoded sparse MR: slot count, then per slot the pid gap (absolute
// pid for the first; gap - 1 after, since pids are strictly ascending),
// the csn, and the requested flag. Only touched slots travel, so request
// piggybacks grow with the checkpoint wave, not with n.
void put_mr(WireWriter& w, const SparseMr& mr) {
  w.vu64(mr.active());
  std::uint32_t prev = 0;
  bool first = true;
  for (const SparseMr::Slot& s : mr.slots()) {
    w.vu32(first ? s.pid : s.pid - prev - 1);
    w.vu32(s.e.csn);
    w.u8(s.e.requested);
    prev = s.pid;
    first = false;
  }
}

SparseMr get_mr(WireReader& r) {
  SparseMr mr;
  const std::uint64_t count = r.vu64();
  std::uint64_t prev = 0;
  bool first = true;
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    const std::uint64_t pid = first ? r.vu32() : prev + 1 + r.vu32();
    MrEntry e;
    e.csn = r.vu32();
    e.requested = r.u8();
    if (!r.ok()) break;
    if (pid > UINT32_MAX || e.requested > 1 ||
        !mr.append(static_cast<std::uint32_t>(pid), e)) {
      r.fail();
      break;
    }
    prev = pid;
    first = false;
  }
  return mr;
}

// --- one entry per payload type -----------------------------------------

/// Field codec for one payload type; the tag byte is written/consumed by
/// the registry-level encode()/decode().
struct PayloadCodec {
  void (*put)(WireWriter&, const rt::Payload&) = nullptr;
  std::shared_ptr<rt::Payload> (*get)(WireReader&) = nullptr;
};

// Core mutable-checkpoint payloads (src/core/payloads.hpp). The put
// functions static_cast: the registry slot was selected by the payload's
// own tag, so the dynamic type is known.

void put_comp(WireWriter& w, const rt::Payload& p0) {
  const auto& p = static_cast<const CompPayload&>(p0);
  w.vu32(p.csn);
  put_trigger(w, p.trigger);
}
std::shared_ptr<rt::Payload> get_comp(WireReader& r) {
  auto p = util::make_pooled<CompPayload>();
  p->csn = r.vu32();
  p->trigger = get_trigger(r);
  return p;
}

void put_request(WireWriter& w, const rt::Payload& p0) {
  const auto& p = static_cast<const RequestPayload&>(p0);
  MCK_ASSERT(p.mr != nullptr);
  put_mr(w, *p.mr);
  w.vu32(p.sender_csn);
  put_trigger(w, p.trigger);
  w.vu32(p.req_csn);
  put_weight(w, p.weight);
}
std::shared_ptr<rt::Payload> get_request(WireReader& r) {
  auto p = util::make_pooled<RequestPayload>();
  p->mr = std::make_shared<const SparseMr>(get_mr(r));  // one per recipient
  p->sender_csn = r.vu32();
  p->trigger = get_trigger(r);
  p->req_csn = r.vu32();
  p->weight = get_weight(r);
  return p;
}

void put_reply(WireWriter& w, const rt::Payload& p0) {
  const auto& p = static_cast<const ReplyPayload&>(p0);
  put_trigger(w, p.trigger);
  put_weight(w, p.weight);
  w.u8(p.refused ? 1 : 0);
  w.vu64(p.failed_observed.size());
  for (ProcessId f : p.failed_observed) w.vu32(static_cast<std::uint32_t>(f));
  put_iset(w, p.deps);
}
std::shared_ptr<rt::Payload> get_reply(WireReader& r) {
  auto p = util::make_pooled<ReplyPayload>();
  p->trigger = get_trigger(r);
  p->weight = get_weight(r);
  p->refused = r.u8() != 0;
  std::uint64_t n = r.vu64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    p->failed_observed.push_back(static_cast<ProcessId>(r.vu32()));
  }
  p->deps = get_iset(r);
  return p;
}

void put_commit(WireWriter& w, const rt::Payload& p0) {
  const auto& p = static_cast<const CommitPayload&>(p0);
  put_trigger(w, p.trigger);
  put_iset(w, p.abort_set);
}
std::shared_ptr<rt::Payload> get_commit(WireReader& r) {
  auto p = util::make_pooled<CommitPayload>();
  p->trigger = get_trigger(r);
  p->abort_set = get_iset(r);
  return p;
}

void put_abort(WireWriter& w, const rt::Payload& p0) {
  put_trigger(w, static_cast<const AbortPayload&>(p0).trigger);
}
std::shared_ptr<rt::Payload> get_abort(WireReader& r) {
  auto p = util::make_pooled<AbortPayload>();
  p->trigger = get_trigger(r);
  return p;
}

void put_clear(WireWriter& w, const rt::Payload& p0) {
  put_trigger(w, static_cast<const ClearPayload&>(p0).trigger);
}
std::shared_ptr<rt::Payload> get_clear(WireReader& r) {
  auto p = util::make_pooled<ClearPayload>();
  p->trigger = get_trigger(r);
  return p;
}

// Baseline payloads (src/baselines/payloads.hpp). Most are an initiation
// id, optionally preceded by a csn/round — small templates cover them.

template <typename T>
void put_init_only(WireWriter& w, const rt::Payload& p0) {
  w.u64(static_cast<const T&>(p0).initiation);
}
template <typename T>
std::shared_ptr<rt::Payload> get_init_only(WireReader& r) {
  auto p = util::make_pooled<T>();
  p->initiation = r.u64();
  return p;
}

template <typename T, Csn T::* Field>
void put_csn_init(WireWriter& w, const rt::Payload& p0) {
  const auto& p = static_cast<const T&>(p0);
  w.u32(p.*Field);
  w.u64(p.initiation);
}
template <typename T, Csn T::* Field>
std::shared_ptr<rt::Payload> get_csn_init(WireReader& r) {
  auto p = util::make_pooled<T>();
  p.get()->*Field = r.u32();
  p->initiation = r.u64();
  return p;
}

void put_kt_comp(WireWriter& w, const rt::Payload& p0) {
  w.u32(static_cast<const baselines::KtComp&>(p0).csn);
}
std::shared_ptr<rt::Payload> get_kt_comp(WireReader& r) {
  auto p = util::make_pooled<baselines::KtComp>();
  p->csn = r.u32();
  return p;
}

template <typename T>
void put_init_req_csn(WireWriter& w, const rt::Payload& p0) {
  const auto& p = static_cast<const T&>(p0);
  w.u64(p.initiation);
  w.u32(p.req_csn);
}
template <typename T>
std::shared_ptr<rt::Payload> get_init_req_csn(WireReader& r) {
  auto p = util::make_pooled<T>();
  p->initiation = r.u64();
  p->req_csn = r.u32();
  return p;
}

void put_cs_comp(WireWriter& w, const rt::Payload& p0) {
  w.u32(static_cast<const baselines::CsComp&>(p0).csn);
}
std::shared_ptr<rt::Payload> get_cs_comp(WireReader& r) {
  auto p = util::make_pooled<baselines::CsComp>();
  p->csn = r.u32();
  return p;
}

// --- the registry -------------------------------------------------------

using rt::PayloadTag;

const std::array<PayloadCodec, rt::kPayloadTagCount>& registry() {
  using namespace mck::baselines;
  static const std::array<PayloadCodec, rt::kPayloadTagCount> table = [] {
    std::array<PayloadCodec, rt::kPayloadTagCount> t{};
    auto reg = [&t](PayloadTag tag, PayloadCodec c) {
      t[static_cast<std::size_t>(tag)] = c;
    };
    reg(PayloadTag::kComp, {put_comp, get_comp});
    reg(PayloadTag::kRequest, {put_request, get_request});
    reg(PayloadTag::kReply, {put_reply, get_reply});
    reg(PayloadTag::kCommit, {put_commit, get_commit});
    reg(PayloadTag::kAbort, {put_abort, get_abort});
    reg(PayloadTag::kClear, {put_clear, get_clear});

    reg(PayloadTag::kKtComp, {put_kt_comp, get_kt_comp});
    reg(PayloadTag::kKtRequest,
        {put_init_req_csn<KtRequest>, get_init_req_csn<KtRequest>});
    reg(PayloadTag::kKtReply, {put_init_only<KtReply>, get_init_only<KtReply>});
    reg(PayloadTag::kKtCommit,
        {put_init_only<KtCommit>, get_init_only<KtCommit>});

    reg(PayloadTag::kEjComp,
        {put_csn_init<EjComp, &EjComp::csn>,
         get_csn_init<EjComp, &EjComp::csn>});
    reg(PayloadTag::kEjRequest,
        {put_csn_init<EjRequest, &EjRequest::csn>,
         get_csn_init<EjRequest, &EjRequest::csn>});
    reg(PayloadTag::kEjReply, {put_init_only<EjReply>, get_init_only<EjReply>});
    reg(PayloadTag::kEjCommit,
        {put_init_only<EjCommit>, get_init_only<EjCommit>});

    reg(PayloadTag::kClMarker,
        {put_init_only<ClMarker>, get_init_only<ClMarker>});
    reg(PayloadTag::kClDone, {put_init_only<ClDone>, get_init_only<ClDone>});
    reg(PayloadTag::kClCommit,
        {put_init_only<ClCommit>, get_init_only<ClCommit>});

    reg(PayloadTag::kLyComp,
        {put_csn_init<LyComp, &LyComp::round>,
         get_csn_init<LyComp, &LyComp::round>});
    reg(PayloadTag::kLyAnnounce,
        {put_csn_init<LyAnnounce, &LyAnnounce::round>,
         get_csn_init<LyAnnounce, &LyAnnounce::round>});
    reg(PayloadTag::kLyReply, {put_init_only<LyReply>, get_init_only<LyReply>});
    reg(PayloadTag::kLyCommit,
        {put_init_only<LyCommit>, get_init_only<LyCommit>});

    reg(PayloadTag::kCsComp, {put_cs_comp, get_cs_comp});
    reg(PayloadTag::kCsRequest,
        {put_init_req_csn<CsRequest>, get_init_req_csn<CsRequest>});
    return t;
  }();
  return table;
}

const PayloadCodec* find_codec(PayloadTag tag) {
  auto i = static_cast<std::size_t>(tag);
  if (i >= registry().size()) return nullptr;
  const PayloadCodec& c = registry()[i];
  return c.put != nullptr ? &c : nullptr;
}

class UniversalCodec final : public rt::WireCodec {
 public:
  std::vector<std::uint8_t> encode(const rt::Payload& p) const override {
    return core::encode(p);
  }
  std::shared_ptr<rt::Payload> decode(rt::ByteView bytes) const override {
    return core::decode(bytes);
  }
  std::uint64_t wire_size(const rt::Payload& p) const override {
    return core::wire_size(p);
  }
  std::uint64_t payload_bytes(const rt::Payload& p) const override {
    return core::payload_bytes(p);
  }
};

}  // namespace

std::vector<std::uint8_t> encode(const rt::Payload& payload) {
  const PayloadCodec* c = find_codec(payload.tag());
  if (c == nullptr) return {};
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(payload.tag()));
  c->put(w, payload);
  return w.take();
}

std::shared_ptr<rt::Payload> decode(rt::ByteView bytes) {
  WireReader r(bytes);
  std::uint8_t tag = r.u8();
  if (!r.ok()) return nullptr;
  const PayloadCodec* c = find_codec(static_cast<PayloadTag>(tag));
  if (c == nullptr) return nullptr;
  std::shared_ptr<rt::Payload> out = c->get(r);
  if (!r.done()) return nullptr;  // truncated or trailing garbage
  return out;
}

std::uint64_t payload_bytes(const rt::Payload& payload) {
  const PayloadCodec* c = find_codec(payload.tag());
  if (c == nullptr) return 0;
  // Measuring pass: runs the field codec against a counting writer, so
  // per-message size accounting materializes (and allocates) nothing.
  WireWriter w{WireWriter::Measure{}};
  w.u8(static_cast<std::uint8_t>(payload.tag()));
  c->put(w, payload);
  return w.size();
}

std::uint64_t wire_size(const rt::Payload& payload) {
  std::uint64_t n = payload_bytes(payload);
  return n == 0 ? 0 : kLinkHeaderBytes + n;
}

bool codec_registered(rt::PayloadTag tag) { return find_codec(tag) != nullptr; }

const rt::WireCodec* universal_codec() {
  static const UniversalCodec codec;
  return &codec;
}

}  // namespace mck::core
