#include "src/obs/manifest.h"

#include <ostream>

#include "src/common/strings.h"
#include "src/obs/output_file.h"

namespace philly {
namespace {

void WriteStringMap(std::ostream& out, const char* key,
                    const std::map<std::string, std::string>& values) {
  out << "  \"" << key << "\": {";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": \""
        << JsonEscape(value) << '"';
    first = false;
  }
  out << (first ? "}" : "\n  }");
}

}  // namespace

void RunManifest::WriteJson(std::ostream& out) const {
  out << "{\n";
  out << "  \"tool\": \"" << JsonEscape(tool) << "\",\n";
  out << "  \"command\": \"" << JsonEscape(command) << "\",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"days\": " << days << ",\n";
  out << "  \"threads\": " << threads << ",\n";
  WriteStringMap(out, "knobs", knobs);
  out << ",\n";
  WriteStringMap(out, "outputs", outputs);
  out << ",\n";
  WriteStringMap(out, "digests", digests);
  out << "\n}\n";
}

bool RunManifest::WriteFile(const std::string& path) const {
  OutputFile file(path);
  if (!file.is_open()) {
    return false;
  }
  WriteJson(file.stream());
  return file.Commit();
}

}  // namespace philly
