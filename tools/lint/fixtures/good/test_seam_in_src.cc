// Fixture: the worker has no test hook. A test that needs it parked
// holds it inside a call to a backend it wraps, through the same public
// interface production uses. Mentioning a PauseForTesting() hook in a
// comment or a "ResumeForTesting" string is fine: the rule polices code.
#include <string>

class Backend {
 public:
  virtual ~Backend() = default;
  virtual int Serve(int request) const = 0;
};

class Worker {
 public:
  explicit Worker(const Backend* backend) : backend_(backend) {}
  int Step(int request) const { return backend_->Serve(request); }

 private:
  const Backend* backend_;
};

const std::string kNote = "ResumeForTesting";
