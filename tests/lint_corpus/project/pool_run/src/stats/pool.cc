#include "stats/pool.h"
#include "util/par.h"
void Pool::ForEachRow(const std::function<void(std::size_t)>& fn) {
  pool_->Run(8, fn);
}
void Pool::Accumulate(const std::vector<long>& rows) {
  pool_->Run(rows.size(), [&](std::size_t i) { direct_ += rows[i]; });
  ForEachRow([&](std::size_t i) { forwarded_ += rows[i]; });
  for (long r : rows) serial_ += r;
}
