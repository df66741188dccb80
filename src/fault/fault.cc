#include "fault/fault.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/result.h"

namespace uctr::fault {

namespace {

bool SiteMatches(const std::string& pattern, std::string_view site) {
  if (!pattern.empty() && pattern.back() == '*') {
    return site.substr(0, pattern.size() - 1) ==
           std::string_view(pattern).substr(0, pattern.size() - 1);
  }
  return pattern == site;
}

Result<StatusCode> CodeFromName(std::string_view name) {
  struct Entry {
    std::string_view name;
    StatusCode code;
  };
  static constexpr Entry kCodes[] = {
      {"invalid_argument", StatusCode::kInvalidArgument},
      {"parse_error", StatusCode::kParseError},
      {"type_error", StatusCode::kTypeError},
      {"not_found", StatusCode::kNotFound},
      {"out_of_range", StatusCode::kOutOfRange},
      {"execution_error", StatusCode::kExecutionError},
      {"empty_result", StatusCode::kEmptyResult},
      {"internal", StatusCode::kInternal},
      {"unavailable", StatusCode::kUnavailable},
      {"deadline_exceeded", StatusCode::kDeadlineExceeded},
  };
  for (const Entry& e : kCodes) {
    if (e.name == name) return e.code;
  }
  return Status::InvalidArgument("unknown status code '" + std::string(name) +
                                 "' in fault spec");
}

std::vector<std::string_view> SplitOn(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string_view::npos) end = text.size();
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
    if (end == text.size()) break;
  }
  return parts;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

Status ParseRule(std::string_view text, FaultRule* rule) {
  size_t eq = text.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return Status::InvalidArgument("fault rule '" + std::string(text) +
                                   "' must be site=action[:opt...]");
  }
  rule->site = std::string(Trim(text.substr(0, eq)));
  std::vector<std::string_view> parts = SplitOn(text.substr(eq + 1), ':');
  if (parts.empty() || Trim(parts[0]).empty()) {
    return Status::InvalidArgument("fault rule for site '" + rule->site +
                                   "' has no action");
  }

  std::string_view action = Trim(parts[0]);
  std::string_view arg;
  if (size_t open = action.find('('); open != std::string_view::npos) {
    if (action.back() != ')') {
      return Status::InvalidArgument("unbalanced '(' in fault action '" +
                                     std::string(action) + "'");
    }
    arg = action.substr(open + 1, action.size() - open - 2);
    action = action.substr(0, open);
  }
  if (action == "error") {
    rule->kind = FaultKind::kError;
    rule->code = StatusCode::kUnavailable;
    if (!arg.empty()) {
      UCTR_ASSIGN_OR_RETURN(rule->code, CodeFromName(arg));
    }
  } else if (action == "latency") {
    rule->kind = FaultKind::kLatency;
    if (arg.empty()) {
      return Status::InvalidArgument(
          "latency fault requires latency(<millis>)");
    }
    rule->latency_ms = std::atoi(std::string(arg).c_str());
    if (rule->latency_ms <= 0) {
      return Status::InvalidArgument("latency millis must be positive in '" +
                                     std::string(arg) + "'");
    }
  } else if (action == "alloc") {
    // Allocation failure shorthand: resource exhaustion (transient, like a
    // real allocator under memory pressure) with a recognizable message.
    rule->kind = FaultKind::kError;
    rule->code = StatusCode::kUnavailable;
    rule->message = "injected allocation failure";
  } else {
    return Status::InvalidArgument("unknown fault action '" +
                                   std::string(action) +
                                   "' (error|latency|alloc)");
  }

  for (size_t i = 1; i < parts.size(); ++i) {
    std::string_view opt = Trim(parts[i]);
    size_t kv = opt.find('=');
    if (kv == std::string_view::npos) {
      return Status::InvalidArgument("fault option '" + std::string(opt) +
                                     "' must be key=value");
    }
    std::string_view key = opt.substr(0, kv);
    std::string value(opt.substr(kv + 1));
    if (key == "p") {
      char* end = nullptr;
      rule->probability = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || rule->probability < 0.0 ||
          rule->probability > 1.0) {
        return Status::InvalidArgument("fault probability '" + value +
                                       "' must be in [0,1]");
      }
    } else if (key == "n") {
      rule->max_triggers = std::atoi(value.c_str());
      if (rule->max_triggers < 0) {
        return Status::InvalidArgument("fault trigger cap '" + value +
                                       "' must be >= 0");
      }
    } else if (key == "after") {
      rule->skip_first = std::atoi(value.c_str());
      if (rule->skip_first < 0) {
        return Status::InvalidArgument("fault 'after' count '" + value +
                                       "' must be >= 0");
      }
    } else {
      return Status::InvalidArgument("unknown fault option '" +
                                     std::string(key) + "' (p|n|after)");
    }
  }
  return Status::OK();
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  rule.evaluated = 0;
  rule.triggered = 0;
  rules_.push_back(std::move(rule));
  armed_.store(true, std::memory_order_relaxed);
}

Status FaultInjector::ParseSpec(std::string_view spec,
                                std::vector<FaultRule>* rules) {
  for (std::string_view part : SplitOn(spec, ';')) {
    part = Trim(part);
    if (part.empty()) continue;
    FaultRule rule;
    UCTR_RETURN_NOT_OK(ParseRule(part, &rule));
    rules->push_back(std::move(rule));
  }
  return Status::OK();
}

Status FaultInjector::ArmSpec(std::string_view spec) {
  std::vector<FaultRule> rules;
  UCTR_RETURN_NOT_OK(ParseSpec(spec, &rules));
  for (FaultRule& rule : rules) Arm(std::move(rule));
  return Status::OK();
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  armed_.store(false, std::memory_order_relaxed);
  injected_total_.store(0, std::memory_order_relaxed);
}

void FaultInjector::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_.Seed(seed);
}

void FaultInjector::set_metrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
}

Status FaultInjector::Check(const char* site) {
  int sleep_ms = 0;
  Status injected = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    obs::MetricsRegistry* registry =
        metrics_ != nullptr ? metrics_ : &obs::DefaultRegistry();
    for (FaultRule& rule : rules_) {
      if (!SiteMatches(rule.site, site)) continue;
      ++rule.evaluated;
      if (rule.evaluated <= rule.skip_first) continue;
      if (rule.max_triggers >= 0 && rule.triggered >= rule.max_triggers) {
        continue;
      }
      if (rule.probability < 1.0 && !rng_.Bernoulli(rule.probability)) {
        continue;
      }
      ++rule.triggered;
      injected_total_.fetch_add(1, std::memory_order_relaxed);
      registry
          ->counter("faults_injected_total{site=\"" + std::string(site) +
                    "\"}")
          ->Increment();
      if (rule.kind == FaultKind::kLatency) {
        sleep_ms = std::max(sleep_ms, rule.latency_ms);
      } else if (injected.ok()) {
        std::string message = rule.message.empty()
                                  ? "injected fault"
                                  : rule.message;
        injected = Status(rule.code, message + " at " + site);
      }
    }
  }
  // Latency spikes sleep with the injector lock released so concurrent
  // fault points (and Arm/Disarm) are never serialized behind a sleeper.
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return injected;
}

Status ArmFromFlags(const FlagMap& flags) {
  auto spec = flags.find("fault-spec");
  if (spec == flags.end()) return Status::OK();
  FlagReader reader(flags);
  uint64_t seed = reader.Unsigned("fault-seed", 0);
  if (!reader.status().ok()) return reader.status();
  if (flags.count("fault-seed") != 0) FaultInjector::Global().Seed(seed);
  return FaultInjector::Global().ArmSpec(spec->second);
}

}  // namespace uctr::fault
