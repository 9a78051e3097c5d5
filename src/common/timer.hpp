#pragma once
/// \file timer.hpp
/// Wall-clock stopwatch for the optimization-time experiment (§V-B).

#include <chrono>

namespace rahtm {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed wall time in seconds.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace rahtm
