#pragma once
#include <functional>
#include <vector>
struct Pool {
  long direct_ = 0;
  long forwarded_ = 0;
  long serial_ = 0;
  void ForEachRow(const std::function<void(std::size_t)>& fn);
  void Accumulate(const std::vector<long>& rows);
};
