// The host-speed reference (perfbench/README.md, "Noise").
//
// A fixed amount of message-passing work built from the standard library
// alone: it shares no code with the simulator, so a change under src/ cannot
// move it.  Like the simulator it leans on the allocator, indirect calls
// through closures, hash and tree maps, and a cache footprint larger than
// one core's L2, so that a slow spell of the host slows both alike.

#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kNodes = 64;
constexpr std::uint32_t kLinksPerNode = 32;
constexpr std::uint32_t kTokens = 128;
constexpr std::size_t kTableWords = (4u << 20) / sizeof(std::uint64_t);

struct Node {
  std::deque<std::vector<std::uint8_t>> inbox;
  std::unordered_map<std::uint64_t, std::uint32_t> links;
};

std::uint64_t LinkKey(std::uint32_t node, std::uint32_t slot) {
  return static_cast<std::uint64_t>(slot) * 977 + node;
}

}  // namespace

Reference::Reference() : table_(kTableWords, 1) {}

std::uint64_t Reference::Work() {
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::vector<Node> nodes(kNodes);
  std::map<std::string, std::uint64_t> counters;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (std::uint32_t slot = 0; slot < kLinksPerNode; ++slot) {
      nodes[n].links[LinkKey(n, slot)] = (n + slot) % kNodes;
    }
  }
  std::uint64_t rng = 88172645463325252ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::uint64_t now = 0;
  std::uint64_t seq = 0;
  std::uint64_t done = 0;
  std::uint64_t sum = 0;

  std::function<void(std::uint32_t, std::vector<std::uint8_t>)> deliver;
  const auto send = [&](std::uint32_t from, std::uint32_t token) {
    const std::uint32_t to = nodes[from].links.at(LinkKey(from, token % kLinksPerNode));
    std::vector<std::uint8_t> frame(48 + (next() & 63));
    std::memcpy(frame.data(), &token, sizeof(token));
    std::memcpy(frame.data() + sizeof(token), &to, sizeof(to));
    queue.push(Event{now + 100 + next() % 400, seq++,
                     [&deliver, to, f = std::move(frame)]() mutable { deliver(to, std::move(f)); }});
  };
  deliver = [&](std::uint32_t to, std::vector<std::uint8_t> frame) {
    Node& node = nodes[to];
    node.inbox.push_back(std::move(frame));
    const std::vector<std::uint8_t> f = std::move(node.inbox.front());
    node.inbox.pop_front();
    std::uint32_t token = 0;
    std::memcpy(&token, f.data(), sizeof(token));
    std::uint64_t hash = 0;
    for (std::size_t k = 0; k + 8 <= f.size(); k += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, f.data() + k, sizeof(word));
      hash = (hash ^ word) * 0x100000001b3ull;
    }
    sum += hash;
    for (int k = 0; k < 8; ++k) {
      sum += table_[next() % table_.size()]++;
    }
    ++counters[(token & 1) != 0 ? "deliver.odd" : "deliver.even"];
    if (++done < kReferenceOps) {
      send(to, token + 1);
    }
  };

  for (std::uint32_t t = 0; t < kTokens; ++t) {
    send(t % kNodes, t);
  }
  while (!queue.empty()) {
    Event e = std::move(const_cast<Event&>(queue.top()));
    queue.pop();
    now = e.at;
    e.fn();
  }
  sink_ += sum;  // the table keeps changing; only the counts repeat
  return done * 2 + counters["deliver.odd"];
}

ReferenceSample Reference::Measure() {
  const std::int64_t t0 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  const std::uint64_t check = Work();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const std::int64_t t1 = NowNs();
  ReferenceSample s;
  s.wall_ns_per_op = static_cast<double>(t1 - t0) / kReferenceOps;
  s.cpu_ns_per_op = cpu_s * 1e9 / kReferenceOps;
  s.check = check;
  return s;
}

}  // namespace perfbench
