#ifndef VCMP_COMMON_INI_H_
#define VCMP_COMMON_INI_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace vcmp {

/// A parsed INI document: ordered sections of key/value pairs.
///
///   # comment
///   [experiment.fig04-light]
///   dataset = DBLP
///   workload = 1024
///
/// Duplicate keys within a section are an error; duplicate section names
/// are an error; keys before the first section header live in the ""
/// section. Values keep internal whitespace but are trimmed at the ends.
class IniDocument {
 public:
  struct Section {
    std::string name;
    std::map<std::string, std::string> values;
  };

  /// Parses INI text. Errors carry 1-based line numbers.
  static Result<IniDocument> Parse(const std::string& text);

  /// Reads and parses a file.
  static Result<IniDocument> Load(const std::string& path);

  const std::vector<Section>& sections() const { return sections_; }

  /// Finds a section by exact name (nullptr if absent).
  const Section* FindSection(const std::string& name) const;

  /// Typed access with defaults; the key's absence returns the fallback,
  /// a malformed number is an error. GetInt reads integer text exactly
  /// (outside int64_t is an error) and accepts other numeric text ("4.0",
  /// "1e3") only as a whole double of magnitude at most 2^53, so it never
  /// truncates or rounds.
  static Result<double> GetDouble(const Section& section,
                                  const std::string& key, double fallback);
  static Result<int64_t> GetInt(const Section& section,
                                const std::string& key, int64_t fallback);
  /// GetInt limited to [min, max]: a value outside is an InvalidArgument
  /// naming the section and key, so a count cast to an unsigned type
  /// never wraps.
  static Result<int64_t> GetIntInRange(const Section& section,
                                       const std::string& key,
                                       int64_t fallback, int64_t min,
                                       int64_t max);
  static std::string GetString(const Section& section,
                               const std::string& key,
                               const std::string& fallback);

 private:
  std::vector<Section> sections_;
};

}  // namespace vcmp

#endif  // VCMP_COMMON_INI_H_
