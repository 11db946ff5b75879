#ifndef SILOFUSE_COMMON_LOGGING_H_
#define SILOFUSE_COMMON_LOGGING_H_

#include <fstream>
#include <sstream>
#include <string>

namespace silofuse {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Returns the process-wide minimum level emitted by SF_LOG.
LogLevel GetLogLevel();

/// Sets the process-wide minimum level emitted by SF_LOG. Messages below the
/// level are discarded. Default is kInfo; the EnvFlag knobs SILOFUSE_QUIET
/// and SILOFUSE_VERBOSE start it at kWarning or kDebug.
void SetLogLevel(LogLevel level);

/// One fully formatted log statement, handed to the active sink.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";  // basename of the emitting file
  int line = 0;
  std::string message;    // the streamed text, no prefix, no newline
};

/// Where completed log lines go. Write() calls are serialized by the
/// logging mutex, so implementations need no locking of their own and a
/// multi-threaded run can never shear a line mid-way.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

/// Replaces the process-wide sink and returns the previous one; nullptr
/// restores the default stderr sink. The caller keeps ownership. Default is
/// stderr, or a JSON-lines file when SILOFUSE_LOG_JSON=<path> is set, so
/// logs and metrics share one structured output story.
LogSink* SetLogSink(LogSink* sink);

/// Structured file sink: one JSON object per line,
/// {"level": "I", "file": "vfl.cc", "line": 12, "msg": "..."}.
class JsonLinesLogSink : public LogSink {
 public:
  explicit JsonLinesLogSink(const std::string& path);

  /// False when the file could not be opened (Write then drops records).
  bool ok() const { return static_cast<bool>(out_); }

  void Write(const LogRecord& record) override;

 private:
  std::ofstream out_;
};

namespace internal_logging {

/// Serializes and emits one record through the active sink under the
/// process-wide logging mutex (one locked write per complete line).
void Emit(LogRecord record);

/// Buffers one log line and flushes it through the sink on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// Swallows a log statement whose level is below the threshold.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_logging

#define SF_LOG(level)                                                     \
  if (::silofuse::LogLevel::k##level < ::silofuse::GetLogLevel())         \
    ;                                                                     \
  else                                                                    \
    ::silofuse::internal_logging::LogMessage(::silofuse::LogLevel::k##level, \
                                             __FILE__, __LINE__)

}  // namespace silofuse

#endif  // SILOFUSE_COMMON_LOGGING_H_
