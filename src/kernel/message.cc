#include "src/kernel/message.h"

namespace demos {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kInvalid:
      return "INVALID";
    case MsgType::kMigrateRequest:
      return "MIGRATE_REQUEST";
    case MsgType::kMigrateOffer:
      return "MIGRATE_OFFER";
    case MsgType::kMigrateAccept:
      return "MIGRATE_ACCEPT";
    case MsgType::kMigrateReject:
      return "MIGRATE_REJECT";
    case MsgType::kMoveDataReq:
      return "MOVE_DATA_REQ";
    case MsgType::kTransferComplete:
      return "TRANSFER_COMPLETE";
    case MsgType::kCleanupDone:
      return "CLEANUP_DONE";
    case MsgType::kMigrateDone:
      return "MIGRATE_DONE";
    case MsgType::kMigrateCancel:
      return "MIGRATE_CANCEL";
    case MsgType::kMoveDataPacket:
      return "MOVE_DATA_PACKET";
    case MsgType::kMoveDataAck:
      return "MOVE_DATA_ACK";
    case MsgType::kReadDataArea:
      return "READ_DATA_AREA";
    case MsgType::kWriteDataArea:
      return "WRITE_DATA_AREA";
    case MsgType::kDataMoveDone:
      return "DATA_MOVE_DONE";
    case MsgType::kLinkUpdate:
      return "LINK_UPDATE";
    case MsgType::kNotDeliverable:
      return "NOT_DELIVERABLE";
    case MsgType::kLocateReq:
      return "LOCATE_REQ";
    case MsgType::kLocateResp:
      return "LOCATE_RESP";
    case MsgType::kLocationRegister:
      return "LOCATION_REGISTER";
    case MsgType::kChainCollapse:
      return "CHAIN_COLLAPSE";
    case MsgType::kLinkUpdateAck:
      return "LINK_UPDATE_ACK";
    case MsgType::kGossip:
      return "GOSSIP";
    case MsgType::kSuspendProcess:
      return "SUSPEND_PROCESS";
    case MsgType::kResumeProcess:
      return "RESUME_PROCESS";
    case MsgType::kKillProcess:
      return "KILL_PROCESS";
    case MsgType::kCreateProcess:
      return "CREATE_PROCESS";
    case MsgType::kCreateProcessReply:
      return "CREATE_PROCESS_REPLY";
    case MsgType::kTimerFired:
      return "TIMER_FIRED";
    case MsgType::kProcessExited:
      return "PROCESS_EXITED";
    case MsgType::kLoadReport:
      return "LOAD_REPORT";
    default:
      return t >= MsgType::kUserBase ? "USER" : "UNKNOWN";
  }
}

namespace {

// Fixed byte offsets of the mutable header fields within a wire frame.  Only
// the hop-mutable fields (receiver machine, hop count, via path, trace id)
// change between forwarding hops, so a reused frame is patched at these
// offsets instead of being re-encoded.
constexpr std::size_t kOffReceiverMachine = 8;
constexpr std::size_t kOffReceiverPid = 10;
constexpr std::size_t kOffFlags = 16;
constexpr std::size_t kOffType = 17;
constexpr std::size_t kOffHopCount = 19;
constexpr std::size_t kOffTraceId = 20;
constexpr std::size_t kOffViaCount = 28;
constexpr std::size_t kOffVia = 29;  // Message::kMaxViaSlots x u16
constexpr std::size_t kOffLinkCount = kOffVia + Message::kMaxViaSlots * 2;
constexpr std::size_t kOffLinks = kOffLinkCount + 1;

std::uint16_t GetLE16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t GetLE32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

void PutLE16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void PutLE64(std::uint8_t* p, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

Bytes Message::Serialize() const {
  ByteWriter w;
  w.Address(sender);
  w.Address(receiver);
  w.U8(flags);
  w.U16(static_cast<std::uint16_t>(type));
  w.U8(hop_count);
  w.U64(trace_id);
  w.U8(via_count);
  for (std::size_t i = 0; i < kMaxViaSlots; ++i) {
    w.U16(via[i]);
  }
  w.U8(static_cast<std::uint8_t>(carried_links.size()));
  for (const Link& link : carried_links) {
    link.Serialize(w);
  }
  w.BlobRef(payload);
  return w.Take();
}

bool Message::FrameReusable() const {
  // Everything except receiver machine, hop count, and trace id must still
  // match the cached frame byte-for-byte, and the payload must still alias it
  // at the recorded offset; otherwise the frame is stale.
  if (wire_.size() < kOffLinks || wire_.size() != payload_off_ + payload.size()) {
    return false;
  }
  const std::uint8_t* base = wire_.data();
  if (GetLE16(base + 0) != sender.last_known_machine ||
      GetLE16(base + 2) != sender.pid.creating_machine ||
      GetLE32(base + 4) != sender.pid.local_id ||
      GetLE16(base + kOffReceiverPid) != receiver.pid.creating_machine ||
      GetLE32(base + kOffReceiverPid + 2) != receiver.pid.local_id ||
      base[kOffFlags] != flags || GetLE16(base + kOffType) != static_cast<std::uint16_t>(type) ||
      base[kOffLinkCount] != carried_links.size()) {
    return false;
  }
  if (payload_off_ < kOffLinks + carried_links.size() * kLinkWireSize + 4 ||
      (!payload.empty() && payload.data() != base + payload_off_)) {
    return false;
  }
  if (GetLE32(base + payload_off_ - 4) != payload.size()) {
    return false;
  }
  ByteReader links(wire_.Slice(kOffLinks, carried_links.size() * kLinkWireSize));
  for (const Link& link : carried_links) {
    if (!(Link::Deserialize(links) == link)) {
      return false;
    }
  }
  return links.ok();
}

PayloadRef Message::Frame() {
  if (wire_.empty() || !FrameReusable()) {
    wire_ = PayloadRef(Serialize());
    payload_off_ = wire_.size() - payload.size();
  } else if (payload.SharesBufferWith(wire_)) {
    // The payload window is this message's own alias of the frame; release it
    // so it does not look like a foreign owner to the COW check below.  It is
    // re-established after the patch.
    payload = PayloadRef{};
  }
  // Patch the hop-mutable fields in place.  MutableData() copies first if the
  // frame is still aliased elsewhere (e.g. a reliable-layer retransmit
  // buffer), so prior owners keep seeing the bytes they captured.
  std::uint8_t* base = wire_.MutableData();
  PutLE16(base + kOffReceiverMachine, receiver.last_known_machine);
  base[kOffHopCount] = hop_count;
  PutLE64(base + kOffTraceId, trace_id);
  base[kOffViaCount] = via_count;
  for (std::size_t i = 0; i < kMaxViaSlots; ++i) {
    PutLE16(base + kOffVia + i * 2, via[i]);
  }
  payload = wire_.Slice(payload_off_, wire_.size() - payload_off_);
  return wire_;
}

Result<MessageView> MessageView::Parse(PayloadRef frame) {
  ByteReader r(frame);
  MessageView v;
  v.sender_ = r.Address();
  v.receiver_ = r.Address();
  v.flags_ = r.U8();
  v.type_ = static_cast<MsgType>(r.U16());
  v.hop_count_ = r.U8();
  v.trace_id_ = r.U64();
  v.via_count_ = r.U8();
  for (std::size_t i = 0; i < Message::kMaxViaSlots; ++i) {
    v.via_[i] = r.U16();
  }
  const std::uint8_t n_links = r.U8();
  v.links_.reserve(n_links);
  for (std::uint8_t i = 0; i < n_links && r.ok(); ++i) {
    v.links_.push_back(Link::Deserialize(r));
  }
  const std::uint32_t payload_len = r.U32();
  if (!r.ok() || r.remaining() < payload_len) {
    return InvalidArgumentError("truncated message frame (" + std::to_string(frame.size()) +
                                " bytes)");
  }
  v.payload_off_ = r.pos();
  v.payload_len_ = payload_len;
  v.frame_ = std::move(frame);
  return v;
}

Message MessageView::ToMessage() const {
  Message m;
  m.sender = sender_;
  m.receiver = receiver_;
  m.flags = flags_;
  m.type = type_;
  m.hop_count = hop_count_;
  m.via_count = via_count_;
  for (std::size_t i = 0; i < Message::kMaxViaSlots; ++i) {
    m.via[i] = via_[i];
  }
  m.trace_id = trace_id_;
  m.carried_links = links_;
  m.payload = payload();
  m.wire_ = frame_;
  m.payload_off_ = payload_off_;
  return m;
}

Result<Message> Message::Deserialize(PayloadRef wire) {
  Result<MessageView> view = MessageView::Parse(std::move(wire));
  if (!view.ok()) {
    return view.status();
  }
  return view->ToMessage();
}

std::size_t Message::WireHeaderSize() {
  // sender(8) + receiver(8) + flags(1) + type(2) + hops(1) + trace id(8) +
  // via count(1) + via slots(4x2) + nlinks(1) + payload length prefix(4).
  return 8 + 8 + 1 + 2 + 1 + 8 + 1 + kMaxViaSlots * 2 + 1 + 4;
}

std::string Message::ToString() const {
  return std::string(MsgTypeName(type)) + " " + sender.ToString() + "->" + receiver.ToString() +
         " (" + std::to_string(payload.size()) + "B, " +
         std::to_string(carried_links.size()) + " links)";
}

}  // namespace demos
