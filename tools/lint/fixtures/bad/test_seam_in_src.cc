// Fixture: a worker loop that checks a test-only pause flag before every
// dequeue. Production pays for the seam on each iteration, and the loop
// has to wake periodically just so a test can park it.
#include <atomic>

class Worker {
 public:
  void PauseForTesting() { paused_.store(true); }
  void ResumeForTesting() { paused_.store(false); }

  bool Step() {
    if (paused_.load()) return false;
    return true;
  }

 private:
  std::atomic<bool> paused_{false};
};
