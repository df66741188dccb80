#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>

#include "common/json.h"

namespace e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double SlicedQuantile(const std::vector<double>& values, double q,
                      size_t min_per_slice, size_t max_slices) {
  size_t slices = std::clamp<size_t>(values.size() / min_per_slice, 1,
                                     max_slices);
  std::vector<double> per_slice;
  for (size_t i = 0; i < slices; ++i) {
    size_t begin = values.size() * i / slices;
    size_t end = values.size() * (i + 1) / slices;
    per_slice.push_back(Quantile(
        std::vector<double>(values.begin() + begin, values.begin() + end), q));
  }
  return Median(per_slice);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / values.size();
}

uint64_t Digest(std::string_view data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string BooleansAsNumbers(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < text.size()) {
        out += text[++i];
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (text.substr(i, 4) == "true") {
      out += '1';
      i += 3;
    } else if (text.substr(i, 5) == "false") {
      out += '0';
      i += 4;
    } else {
      out += c;
    }
  }
  return out;
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  for (int field = 0; field < 10; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, bool gated) {
  entries_.push_back({name, value, unit, gated});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& what) {
  failures_.push_back(what);
  std::cerr << "e2ebench: CHECK FAILED: " << what << "\n";
}

void Report::Print() const {
  for (const std::string& n : notes_) std::cout << "# " << n << "\n";
  for (const std::string& f : failures_) {
    std::cout << "# check failed: " << f << "\n";
  }
  char buf[64];
  for (const Entry& e : entries_) {
    std::snprintf(buf, sizeof(buf), "%.9g", e.value);
    std::cout << (e.gated ? "" : "  ") << e.name << " = " << buf << " "
              << e.unit << "\n";
  }
  std::string json = "{\"correct\":";
  json += correct() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(std::max<uint64_t>(attempted_, 1));
  json += ",\"failed\":" + std::to_string(failed_);
  json += ",\"metrics\":{";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.gated) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    json += first ? "" : ",";
    json += uctr::json::Quote(e.name) + ":{\"value\":" + buf +
            ",\"unit\":" + uctr::json::Quote(e.unit) + "}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace e2e
