#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

namespace e2e {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

}  // namespace

std::uint64_t digest(std::span<ickpt::synth::Compound* const> roots) {
  using ickpt::synth::Compound;
  using ickpt::synth::ListElem;
  Fnv f;
  f.mix(roots.size());
  for (const Compound* c : roots) {
    f.mix(c->info().id());
    for (int i = 0; i < Compound::kLists; ++i) {
      for (const ListElem* e = c->list(i); e != nullptr; e = e->next()) {
        f.mix(e->info().id());
        f.mix(static_cast<std::uint64_t>(e->nvals()));
        for (int k = 0; k < e->nvals(); ++k)
          f.mix(static_cast<std::uint32_t>(e->value(k)));
      }
      f.mix(~0ULL);  // list terminator: shapes must match too
    }
  }
  return f.h;
}

std::uint64_t digest(const ickpt::core::RecoveredState& state) {
  std::vector<ickpt::synth::Compound*> roots;
  roots.reserve(state.roots.size());
  for (std::size_t i = 0; i < state.roots.size(); ++i)
    roots.push_back(state.root_as<ickpt::synth::Compound>(i));
  return digest(roots);
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int Trace::open(std::string name, int parent) {
  const auto now = Clock::now();
  spans_.push_back(Span{std::move(name), op_, parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::size_t, double> Trace::per_op_ms(const std::string& name,
                                               bool self) const {
  std::map<std::size_t, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    double ms = ms_between(s.t0, s.t1);
    if (self) {
      // Children follow their parent in open order.
      for (std::size_t j = i + 1; j < spans_.size() && spans_[j].op == s.op;
           ++j)
        if (spans_[j].parent == static_cast<int>(i))
          ms -= ms_between(spans_[j].t0, spans_[j].t1);
    }
    out[s.op] += ms;
  }
  return out;
}

const std::map<std::size_t, double>& Trace::per_op_count(
    const std::string& name) const {
  static const std::map<std::size_t, double> kEmpty;
  auto it = counts_.find(name);
  return it == counts_.end() ? kEmpty : it->second;
}

void Trace::write_json(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const Clock::time_point base =
      spans_.empty() ? Clock::time_point{} : spans_.front().t0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.t0 - base).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.t1 - s.t0).count();
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_number(ts)
        << ",\"dur\":" << json_number(dur) << ",\"args\":{\"op\":" << s.op
        << ",\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& members) {
  std::string out = "{";
  for (const auto& [key, value] : members) {
    if (out.size() > 1) out += ',';
    out += json_string(key);
    out += ':';
    out += value;
  }
  out += '}';
  return out;
}

}  // namespace e2e
