#include "stats/pool.h"
struct User {
  long hits_ = 0;
  void Count(Pool& pool) {
    pool.ForEachRow([&](std::size_t) { hits_ += 1; });
  }
};
