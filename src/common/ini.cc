#include "common/ini.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace vcmp {
namespace {

std::string Trim(const std::string& raw) {
  size_t begin = raw.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = raw.find_last_not_of(" \t\r");
  return raw.substr(begin, end - begin + 1);
}

}  // namespace

Result<IniDocument> IniDocument::Parse(const std::string& text) {
  IniDocument document;
  document.sections_.push_back(Section{"", {}});
  Section* current = &document.sections_.back();

  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == ';') {
      continue;
    }
    if (trimmed.front() == '[') {
      if (trimmed.back() != ']' || trimmed.size() < 3) {
        return Status::InvalidArgument(
            StrFormat("line %d: malformed section header '%s'", line_number,
                      trimmed.c_str()));
      }
      std::string name = Trim(trimmed.substr(1, trimmed.size() - 2));
      if (document.FindSection(name) != nullptr) {
        return Status::InvalidArgument(StrFormat(
            "line %d: duplicate section '%s'", line_number, name.c_str()));
      }
      document.sections_.push_back(Section{name, {}});
      current = &document.sections_.back();
      continue;
    }
    size_t equals = trimmed.find('=');
    if (equals == std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "line %d: expected 'key = value', got '%s'", line_number,
          trimmed.c_str()));
    }
    std::string key = Trim(trimmed.substr(0, equals));
    std::string value = Trim(trimmed.substr(equals + 1));
    if (key.empty()) {
      return Status::InvalidArgument(
          StrFormat("line %d: empty key", line_number));
    }
    if (!current->values.emplace(key, value).second) {
      return Status::InvalidArgument(
          StrFormat("line %d: duplicate key '%s' in section '%s'",
                    line_number, key.c_str(), current->name.c_str()));
    }
  }
  // Drop the implicit preamble section if unused.
  if (document.sections_.front().values.empty()) {
    document.sections_.erase(document.sections_.begin());
  }
  return document;
}

Result<IniDocument> IniDocument::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  return Parse(contents);
}

const IniDocument::Section* IniDocument::FindSection(
    const std::string& name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

Result<double> IniDocument::GetDouble(const Section& section,
                                      const std::string& key,
                                      double fallback) {
  auto it = section.values.find(key);
  if (it == section.values.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(it->second.c_str(), &end);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("key '" + key + "' is not a number: '" +
                                   it->second + "'");
  }
  return value;
}

Result<int64_t> IniDocument::GetInt(const Section& section,
                                    const std::string& key,
                                    int64_t fallback) {
  auto it = section.values.find(key);
  if (it == section.values.end()) return fallback;
  // Integer text is read exactly: a double would round 2^53 + 1 down.
  const char* begin = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long exact = std::strtoll(begin, &end, 10);
  if (end != begin && *end == '\0') {
    if (errno == ERANGE) {
      return Status::InvalidArgument("key '" + key +
                                     "' is outside the int64 range: '" +
                                     it->second + "'");
    }
    return static_cast<int64_t>(exact);
  }
  // Other numeric text ("4.0", "1e3") only while it is a whole double in
  // [-2^53, 2^53], where doubles still hold every whole number; anything
  // else would truncate or round.
  VCMP_ASSIGN_OR_RETURN(double value, GetDouble(section, key, 0.0));
  constexpr double kTwoPow53 = 9007199254740992.0;
  if (!std::isfinite(value) || value != std::trunc(value) ||
      std::fabs(value) > kTwoPow53) {
    return Status::InvalidArgument("key '" + key +
                                   "' is not a whole number of magnitude "
                                   "at most 2^53: '" +
                                   it->second + "'");
  }
  return static_cast<int64_t>(value);
}

Result<int64_t> IniDocument::GetIntInRange(const Section& section,
                                           const std::string& key,
                                           int64_t fallback, int64_t min,
                                           int64_t max) {
  VCMP_ASSIGN_OR_RETURN(int64_t value, GetInt(section, key, fallback));
  if (value < min || value > max) {
    return Status::InvalidArgument(StrFormat(
        "section '%s': %s must be in [%lld, %lld], got %lld",
        section.name.c_str(), key.c_str(), static_cast<long long>(min),
        static_cast<long long>(max), static_cast<long long>(value)));
  }
  return value;
}

std::string IniDocument::GetString(const Section& section,
                                   const std::string& key,
                                   const std::string& fallback) {
  auto it = section.values.find(key);
  return it == section.values.end() ? fallback : it->second;
}

}  // namespace vcmp
