#include "apps/transport.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <system_error>

namespace tussle::apps {
namespace {

constexpr std::size_t kMaxDigits = std::numeric_limits<std::uint64_t>::digits10 + 1;

/// "<prefix><a>:<b>", for a prefix of four characters.
std::string make_tag(const char (&prefix)[5], std::uint64_t a, std::uint64_t b) {
  char buf[4 + kMaxDigits + 1 + kMaxDigits];
  char* out = std::copy(prefix, prefix + 4, buf);
  out = std::to_chars(out, out + kMaxDigits, a).ptr;
  *out++ = ':';
  out = std::to_chars(out, out + kMaxDigits, b).ptr;
  return std::string(buf, out);
}

}  // namespace

std::string segment_tag(net::FlowId flow, std::uint64_t seq) {
  return make_tag("seg:", flow, seq);
}

std::string ack_tag(net::FlowId flow, std::uint64_t cum_seq) {
  return make_tag("ack:", flow, cum_seq);
}

bool parse_tag(std::string_view tag, std::string_view prefix, std::uint64_t& a,
               std::uint64_t& b) {
  if (!tag.starts_with(prefix)) return false;
  const char* const end = tag.data() + tag.size();
  const auto [colon, ec] = std::from_chars(tag.data() + prefix.size(), end, a);
  if (ec != std::errc{} || colon == end || *colon != ':') return false;
  return std::from_chars(colon + 1, end, b).ec == std::errc{};
}

FlowSink::FlowSink(net::Network& net, net::NodeId node, net::Address addr,
                   std::shared_ptr<AppMux> mux, net::AppProto proto)
    : net_(&net), node_(node), addr_(addr) {
  mux->set_handler(proto, [this](const net::Packet& p) {
    std::uint64_t flow = 0, seq = 0;
    if (!parse_tag(p.payload_tag, "seg:", flow, seq)) return;
    auto& next = rcv_next_[flow];
    if (seq == next) {
      ++next;
      ++received_;
      bytes_ += p.size_bytes;
    }
    // Cumulative ack (even for out-of-order arrivals: re-ack the frontier).
    if (next == 0) return;  // nothing in order yet; GBN stays silent
    net::Packet ack;
    ack.src = addr_;
    ack.dst = p.src;
    ack.proto = net::AppProto::kControl;
    ack.size_bytes = 60;
    ack.payload_tag = ack_tag(flow, next - 1);
    net_->node(node_).originate(std::move(ack));
  });
}

AimdFlow::AimdFlow(net::Network& net, net::NodeId node, net::Address src, net::Address dst,
                   std::shared_ptr<AppMux> src_mux, net::AppProto proto, net::FlowId id,
                   AimdConfig cfg)
    : net_(&net), node_(node), src_(src), dst_(dst), proto_(proto), id_(id), cfg_(cfg),
      ssthresh_(cfg.initial_ssthresh) {
  if (cfg_.aggressive) cwnd_ = cfg_.aggressive_window;
  src_mux->set_handler(net::AppProto::kControl, [this](const net::Packet& p) {
    std::uint64_t flow = 0, cum = 0;
    if (!parse_tag(p.payload_tag, "ack:", flow, cum)) return;
    if (flow != id_) return;
    on_ack(cum);
  });
}

void AimdFlow::start() {
  started_ = true;
  start_time_s_ = net_->simulator().now().as_seconds();
  pump();
  arm_timer();
}

void AimdFlow::send_segment(std::uint64_t seq) {
  net::Packet p;
  p.src = src_;
  p.dst = dst_;
  p.proto = proto_;
  p.size_bytes = cfg_.segment_bytes;
  p.flow = id_;
  p.payload_tag = segment_tag(id_, seq);
  net_->node(node_).originate(std::move(p));
}

void AimdFlow::pump() {
  const double window = cfg_.aggressive ? cfg_.aggressive_window : cwnd_;
  while (next_seq_ < cfg_.total_segments &&
         static_cast<double>(next_seq_ - base_) < window) {
    send_segment(next_seq_);
    ++next_seq_;
  }
}

void AimdFlow::on_ack(std::uint64_t cum_seq) {
  if (cum_seq + 1 <= base_) return;  // duplicate/old
  base_ = cum_seq + 1;
  if (!cfg_.aggressive) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1;  // slow start
    } else {
      cwnd_ += 1.0 / cwnd_;  // congestion avoidance
    }
  }
  if (finished()) {
    finish_time_s_ = net_->simulator().now().as_seconds();
    net_->simulator().cancel(timer_);
    return;
  }
  arm_timer();
  pump();
}

void AimdFlow::arm_timer() {
  net_->simulator().cancel(timer_);
  const std::uint64_t epoch = ++timer_epoch_;
  timer_ = net_->simulator().schedule(cfg_.rto, [this, epoch]() {
    if (epoch != timer_epoch_ || finished()) return;
    on_timeout();
  });
}

void AimdFlow::on_timeout() {
  ++timeouts_;
  if (!cfg_.aggressive) {
    ssthresh_ = std::max(2.0, cwnd_ / 2.0);  // multiplicative decrease
    cwnd_ = 1;
  }
  // Go-Back-N: resend the window from base.
  const auto unacked = next_seq_ - base_;
  next_seq_ = base_;
  retransmissions_ += unacked;
  pump();
  arm_timer();
}

double AimdFlow::goodput_bps() const noexcept {
  if (!finished() || finish_time_s_ <= start_time_s_) return 0;
  const double bytes = static_cast<double>(cfg_.total_segments) * cfg_.segment_bytes;
  return bytes / (finish_time_s_ - start_time_s_);
}

}  // namespace tussle::apps
