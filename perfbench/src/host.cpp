// Process accounting, the host fingerprint, steal share, and the Chrome
// trace writer.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"

#ifndef SWAT_PERFBENCH_FLAGS
#define SWAT_PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

int numa_nodes() {
  int nodes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(
           "/sys/devices/system/node", ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("node", 0) == 0 && name.size() > 4 &&
        std::isdigit(static_cast<unsigned char>(name[4]))) {
      ++nodes;
    }
  }
  return std::max(nodes, 1);
}

}  // namespace

std::string host_fingerprint_json() {
  const char* threads_env = std::getenv("SWAT_THREADS");
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
     << std::thread::hardware_concurrency()
     << ", \"numa_nodes\": " << numa_nodes() << ", \"build\": \""
     << json_escape(SWAT_PERFBENCH_FLAGS) << "\", \"SWAT_THREADS\": \""
     << json_escape(threads_env != nullptr ? threads_env : "") << "\""
     << ", \"pool_threads\": " << swat::num_threads() << "}";
  return os.str();
}

CpuStat read_cpu_stat() {
  std::ifstream in("/proc/stat");
  std::string tag;
  CpuStat s;
  if (!(in >> tag) || tag != "cpu") return s;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already included in user/nice.
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

double steal_share(const CpuStat& a, const CpuStat& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceSpan>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {\"id\": %lld}}%s\n",
                  json_escape(s.name).c_str(), json_escape(s.cat).c_str(),
                  s.ts_us, s.dur_us, s.tid, static_cast<long long>(s.id),
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

}  // namespace perfbench
