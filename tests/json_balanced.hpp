#pragma once
// Rough structural validation of the obs JSON writers' output: balanced
// braces and brackets outside strings, every string closed.

#include <string>

namespace sacpp::obs {

inline bool json_balanced(const std::string& s) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

}  // namespace sacpp::obs
