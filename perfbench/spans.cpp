#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t SpanRecorder::add(std::string name, double start, double end,
                                std::uint32_t parent, std::int64_t request,
                                std::uint32_t track) {
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.start = start;
  s.end = end;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.track = track;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint32_t SpanRecorder::open(std::string name, std::uint32_t parent) {
  const double t = now_s();
  return add(std::move(name), t, t, parent);
}

void SpanRecorder::close(std::uint32_t id) {
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id - 1).end = t;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans,
                                 std::uint32_t root) {
  // Collect the root's subtree, clipping each span to its parent's interval
  // (a child that outlives its parent cannot explain the parent's time
  // outside it).
  std::map<std::uint32_t, std::vector<std::size_t>> children;
  std::map<std::uint32_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of[spans[i].id] = i;
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  const auto root_it = index_of.find(root);
  if (root_it == index_of.end()) throw std::invalid_argument("unknown root span");

  struct Node {
    std::size_t span;
    double start, end;
    int depth;
    int parent;  ///< index into nodes, -1 for the root
  };
  std::vector<Node> nodes;
  nodes.push_back({root_it->second, spans[root_it->second].start,
                   spans[root_it->second].end, 0, -1});
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const auto kids = children.find(spans[nodes[n].span].id);
    if (kids == children.end()) continue;
    for (const std::size_t k : kids->second) {
      const double s = std::max(spans[k].start, nodes[n].start);
      const double e = std::min(spans[k].end, nodes[n].end);
      nodes.push_back({k, s, std::max(s, e), nodes[n].depth + 1,
                       static_cast<int>(n)});
    }
  }

  // Sweep: at each boundary apply ends (deepest first) then starts
  // (shallowest first); between boundaries the wall time goes in equal
  // shares to the active spans that have no active child (the leaves).
  struct Boundary {
    double t;
    int kind;  ///< 0 end, 1 start
    int order;
    std::size_t node;
  };
  std::vector<Boundary> bounds;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].end <= nodes[n].start) continue;  // empty: explains nothing
    bounds.push_back({nodes[n].start, 1, nodes[n].depth, n});
    bounds.push_back({nodes[n].end, 0, -nodes[n].depth, n});
  }
  std::sort(bounds.begin(), bounds.end(), [](const Boundary& a, const Boundary& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.order < b.order;
  });

  std::vector<double> self(nodes.size(), 0.0);
  std::vector<int> active_children(nodes.size(), 0);
  std::set<std::size_t> leaves;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    const std::size_t n = bounds[b].node;
    const int p = nodes[n].parent;
    if (bounds[b].kind == 1) {
      if (p >= 0 && active_children[p]++ == 0) leaves.erase(static_cast<std::size_t>(p));
      leaves.insert(n);
    } else {
      leaves.erase(n);
      if (p >= 0 && --active_children[p] == 0) leaves.insert(static_cast<std::size_t>(p));
    }
    if (b + 1 < bounds.size() && !leaves.empty()) {
      const double dt = bounds[b + 1].t - bounds[b].t;
      const double share = dt / static_cast<double>(leaves.size());
      for (const std::size_t leaf : leaves) self[leaf] += share;
    }
  }

  std::vector<std::size_t> order(nodes.size());
  for (std::size_t n = 0; n < nodes.size(); ++n) order[n] = n;
  std::stable_sort(order.begin() + 1, order.end(), [&](std::size_t a, std::size_t b) {
    return nodes[a].start < nodes[b].start;
  });
  std::vector<SelfTime> out;
  std::map<std::string, std::size_t> slot;
  for (const std::size_t n : order) {
    const std::string& name = spans[nodes[n].span].name;
    auto [it, fresh] = slot.emplace(name, out.size());
    if (fresh) out.push_back(SelfTime{name});
    SelfTime& st = out[it->second];
    st.self_s += self[n];
    st.total_s += nodes[n].end - nodes[n].start;
    ++st.count;
  }
  return out;
}

namespace {

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& process_name) {
  double origin = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start < origin) origin = spans[i].start;
  }
  auto us = [origin](double t) { return (t - origin) * 1e6; };
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                "\"args\":{\"name\":\"%s\"}}",
                escaped(process_name).c_str());
  out += buf;
  for (const Span& s : spans) {
    const std::string name = escaped(s.name);
    if (s.request < 0) {
      std::snprintf(buf, sizeof buf,
                    ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,\"parent\":%u}}",
                    name.c_str(), s.track, us(s.start), us(s.end) - us(s.start),
                    s.id, s.parent);
      out += buf;
    } else {
      for (const char ph : {'b', 'e'}) {
        std::snprintf(buf, sizeof buf,
                      ",{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"%c\","
                      "\"id\":%lld,\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"args\":{\"span\":%u,\"parent\":%u}}",
                      name.c_str(), ph, static_cast<long long>(s.request),
                      s.track, us(ph == 'b' ? s.start : s.end), s.id, s.parent);
        out += buf;
      }
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
