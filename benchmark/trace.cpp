#include "trace.h"

#include <cmath>
#include <cstdio>

namespace planbench {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Args::key(const char* k) {
  if (!body_.empty()) body_ += ',';
  append_json_string(body_, k);
  body_ += ':';
}

Args& Args::add(const char* k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

Args& Args::add(const char* k, int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

Args& Args::add(const char* k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

Args& Args::add(const char* k, const std::string& value) {
  key(k);
  append_json_string(body_, value);
  return *this;
}

Args& Args::raw(const char* k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

void Trace::span(const std::string& name, const char* category, int tid,
                 Clock::time_point start, Clock::time_point end,
                 const Args& args) {
  if (!enabled_) return;
  using us = std::chrono::duration<double, std::micro>;
  Event e{name, category, tid, us(start - origin_).count(),
          us(end - start).count(), args.json()};
  std::lock_guard lock(mu_);
  events_.push_back(std::move(e));
}

bool Trace::write(const std::string& path, const Args& other) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard lock(mu_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"otherData\":", f);
  std::fputs(other.json().c_str(), f);
  std::fputs(",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::string line = "{\"name\":";
    append_json_string(line, e.name);
    line += ",\"cat\":";
    append_json_string(line, e.category);
    line += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
            ",\"ts\":" + json_number(e.ts_us) +
            ",\"dur\":" + json_number(e.dur_us) + ",\"args\":" + e.args + "}";
    if (i + 1 < events_.size()) line += ',';
    line += '\n';
    std::fputs(line.c_str(), f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace planbench
