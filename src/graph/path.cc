#include "graph/path.h"

#include "common/string_util.h"

namespace grfusion {

std::string PathToString(const PathData& path) {
  if (path.vertexes.empty()) return "(empty path)";
  std::string out = std::to_string(path.vertexes[0]);
  for (size_t i = 0; i < path.edges.size(); ++i) {
    out += StrFormat(" -[%lld]-> %lld", static_cast<long long>(path.edges[i]),
                     static_cast<long long>(path.vertexes[i + 1]));
  }
  return out;
}

}  // namespace grfusion
