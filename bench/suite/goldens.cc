#include "goldens.h"

#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "metrics/export.h"

namespace vcmp {
namespace suite {

std::string HexBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return StrFormat("%016llx", static_cast<unsigned long long>(bits));
}

std::string BatchFingerprint(const std::vector<BatchRecord>& batches) {
  std::string out;
  for (const BatchRecord& b : batches) {
    out += StrFormat("%s:%s:%llu:%s:%s:%016llx;", b.task.c_str(),
                     HexBits(b.sim_seconds).c_str(),
                     static_cast<unsigned long long>(b.rounds),
                     HexBits(b.logical_messages).c_str(),
                     HexBits(b.peak_memory_bytes).c_str(),
                     static_cast<unsigned long long>(b.answer_digest));
  }
  return out;
}

std::string GoldenKey(uint64_t seed, double shrink,
                      const std::string& workload) {
  return StrFormat("%llu/%g/%s", static_cast<unsigned long long>(seed),
                   shrink, workload.c_str());
}

Result<Goldens> ReadGoldens(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open goldens file " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // The file is written by WriteGoldens: a flat "entries" object of
  // string pairs whose keys and values never need escaping.
  const auto bad = [&path](const std::string& why) {
    return Status::InvalidArgument("goldens file " + path + ": " + why);
  };
  size_t at = text.find("\"entries\"");
  if (at == std::string::npos) return bad("no \"entries\" object");
  at = text.find('{', at);
  if (at == std::string::npos) return bad("no \"entries\" object");
  ++at;
  const auto skip = [&] {
    while (at < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[at])) ||
            text[at] == ',')) {
      ++at;
    }
  };
  const auto string_token = [&](std::string* out) {
    if (at >= text.size() || text[at] != '"') return false;
    const size_t end = text.find('"', at + 1);
    if (end == std::string::npos) return false;
    *out = text.substr(at + 1, end - at - 1);
    at = end + 1;
    return out->find('\\') == std::string::npos;
  };
  Goldens goldens;
  for (skip(); at < text.size() && text[at] != '}'; skip()) {
    std::string key;
    std::string value;
    if (!string_token(&key)) return bad("malformed key");
    skip();
    if (at >= text.size() || text[at] != ':') return bad("missing ':'");
    ++at;
    skip();
    if (!string_token(&value)) return bad("malformed value of " + key);
    goldens[key] = value;
  }
  if (at >= text.size()) return bad("unterminated \"entries\" object");
  return goldens;
}

Status WriteGoldens(const Goldens& goldens, const std::string& path) {
  std::string text = StrFormat("{\n  \"schema_version\": %d,\n  \"entries\": {",
                               kJsonSchemaVersion);
  bool first = true;
  for (const auto& [key, value] : goldens) {
    text += first ? "\n" : ",\n";
    first = false;
    text += "    \"" + internal_export::JsonEscape(key) + "\": \"" +
            internal_export::JsonEscape(value) + "\"";
  }
  text += "\n  }\n}";
  return WriteTextFile(text, path);
}

}  // namespace suite
}  // namespace vcmp
