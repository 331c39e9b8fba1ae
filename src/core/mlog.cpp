#include "core/mlog.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace mlperf::core {

double LogEvent::as_number() const {
  if (const double* d = std::get_if<double>(&value)) return *d;
  throw std::logic_error("LogEvent '" + key + "': value is not a number");
}

const std::string& LogEvent::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value)) return *s;
  throw std::logic_error("LogEvent '" + key + "': value is not a string");
}

bool LogEvent::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value)) return *b;
  throw std::logic_error("LogEvent '" + key + "': value is not a bool");
}

void MlLog::log(double time_ms, std::string key, LogValue value,
                std::map<std::string, std::string> meta) {
  events_.push_back(LogEvent{time_ms, std::move(key), std::move(value), std::move(meta)});
}

const LogEvent* MlLog::find(const std::string& key) const {
  for (const auto& e : events_)
    if (e.key == key) return &e;
  return nullptr;
}

std::vector<const LogEvent*> MlLog::find_all(const std::string& key) const {
  std::vector<const LogEvent*> out;
  for (const auto& e : events_)
    if (e.key == key) out.push_back(&e);
  return out;
}

const LogEvent* MlLog::find_last(const std::string& key) const {
  const LogEvent* last = nullptr;
  for (const auto& e : events_)
    if (e.key == key) last = &e;
  return last;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string MlLog::serialize() const {
  std::ostringstream os;
  // Enough digits that every double (time_ms stamps included) parses back to
  // the same bits; non-finite values print as nan / inf / -inf.
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& e : events_) {
    os << "{\"time_ms\": " << e.time_ms << ", \"key\": \"" << json_escape(e.key)
       << "\", \"value\": ";
    if (const double* d = std::get_if<double>(&e.value)) {
      os << *d;
    } else if (const bool* b = std::get_if<bool>(&e.value)) {
      os << (*b ? "true" : "false");
    } else {
      os << '"' << json_escape(std::get<std::string>(e.value)) << '"';
    }
    if (!e.meta.empty()) {
      os << ", \"meta\": {";
      bool first = true;
      for (const auto& [k, v] : e.meta) {
        if (!first) os << ", ";
        first = false;
        os << '"' << json_escape(k) << "\": \"" << json_escape(v) << '"';
      }
      os << '}';
    }
    os << "}\n";
  }
  return os.str();
}

namespace {

/// Minimal parser for the serializer's own output (one flat object per line).
class LineParser {
 public:
  explicit LineParser(const std::string& line) : s_(line) {}

  LogEvent parse() {
    LogEvent e;
    expect('{');
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      if (!first) expect(',');
      first = false;
      const std::string field = parse_string();
      expect(':');
      if (field == "time_ms") {
        e.time_ms = parse_number();
      } else if (field == "key") {
        e.key = parse_string();
      } else if (field == "value") {
        skip_ws();
        const char c = peek();
        if (c == '"') {
          e.value = parse_string();
        } else if (c == 't' || c == 'f') {
          e.value = parse_bool();
        } else {
          e.value = parse_number();
        }
      } else if (field == "meta") {
        expect('{');
        bool mfirst = true;
        while (true) {
          skip_ws();
          if (peek() == '}') {
            ++pos_;
            break;
          }
          if (!mfirst) expect(',');
          mfirst = false;
          const std::string k = parse_string();
          expect(':');
          e.meta[k] = parse_string();
        }
      } else {
        throw std::invalid_argument("MlLog::parse: unknown field '" + field + "'");
      }
    }
    skip_ws();
    if (pos_ != s_.size())
      throw std::invalid_argument("MlLog::parse: trailing characters after '}'");
    return e;
  }

 private:
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::invalid_argument("MlLog::parse: unexpected end of line");
    return s_[pos_];
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  void expect(char c) {
    if (peek() != c)
      throw std::invalid_argument(std::string("MlLog::parse: expected '") + c + "'");
    ++pos_;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
        ++pos_;
        switch (s_[pos_]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: out += s_[pos_];
        }
      } else {
        out += s_[pos_];
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) throw std::invalid_argument("MlLog::parse: unterminated string");
    ++pos_;  // closing quote
    return out;
  }
  // A number token as the serializer prints it, including the nan / -nan /
  // inf / -inf spellings of non-finite values.
  double parse_number() {
    skip_ws();
    std::size_t end = pos_;
    while (end < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[end])) ||
                               s_[end] == '-' || s_[end] == '+' || s_[end] == '.'))
      ++end;
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(s_.data() + pos_, s_.data() + end, v);
    if (ec != std::errc() || ptr != s_.data() + end)
      throw std::invalid_argument("MlLog::parse: bad number '" + s_.substr(pos_, end - pos_) +
                                  "'");
    pos_ = end;
    return v;
  }
  bool parse_bool() {
    skip_ws();
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    throw std::invalid_argument("MlLog::parse: bad bool");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

void MlLog::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("MlLog::write_file: cannot open " + path);
  out << serialize();
  if (!out) throw std::runtime_error("MlLog::write_file: write failed for " + path);
}

MlLog MlLog::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("MlLog::read_file: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

MlLog MlLog::parse(const std::string& json_lines) {
  MlLog log;
  std::istringstream is(json_lines);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    LineParser p(line);
    log.events_.push_back(p.parse());
  }
  return log;
}

}  // namespace mlperf::core
