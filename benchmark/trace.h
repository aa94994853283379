// Span recorder for the traced benchmark run. Spans stay in memory while
// the workload runs and are written once, at exit, as Chrome trace-event
// JSON (complete events, "ph":"X"), which loads in Perfetto or
// chrome://tracing and in summarize.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace planbench {

using Clock = std::chrono::steady_clock;

// A flat JSON object built key by key: Args().add("query", 3).add("model",
// "vgg16").json() == {"query":3,"model":"vgg16"}.
class Args {
 public:
  Args& add(const char* key, double value);
  Args& add(const char* key, int64_t value);
  Args& add(const char* key, int value) {
    return add(key, static_cast<int64_t>(value));
  }
  Args& add(const char* key, bool value);
  Args& add(const char* key, const std::string& value);
  // `json` must already be a JSON value (object, array, ...).
  Args& raw(const char* key, const std::string& json);
  std::string json() const { return "{" + body_ + "}"; }

 private:
  void key(const char* k);
  std::string body_;
};

// Appends `s` to `out` as a JSON string literal.
void append_json_string(std::string& out, const std::string& s);
// A JSON number, or null when `v` is not finite.
std::string json_number(double v);

// Thread-safe; a disabled trace drops every span.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records the span [start, end) on lane `tid` (one lane per client).
  void span(const std::string& name, const char* category, int tid,
            Clock::time_point start, Clock::time_point end,
            const Args& args = {});

  // Writes every span plus `other` (top-level "otherData") to `path`.
  bool write(const std::string& path, const Args& other) const;

 private:
  struct Event {
    std::string name;
    const char* category;
    int tid;
    double ts_us, dur_us;
    std::string args;
  };

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

}  // namespace planbench
