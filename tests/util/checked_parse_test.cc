// Strict parsing of the KOMODO_* environment switches (src/util/checked_parse.h):
// KOMODO_TRACE accepts exactly on|1|true|off|0|false. Any other value aborts
// with "NAME: reason" rather than being read as some other setting.
#include "src/util/checked_parse.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "src/obs/trace.h"

namespace komodo {
namespace {

// Sets `name` for the lifetime of the guard and restores the previous value
// (the suite itself may run under KOMODO_TRACE=on).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(CheckedParse, SwitchAcceptsExactlySixSpellings) {
  for (const char* on : {"on", "1", "true"}) {
    bool v = false;
    EXPECT_TRUE(TryParseSwitch(on, &v)) << on;
    EXPECT_TRUE(v) << on;
  }
  for (const char* off : {"off", "0", "false"}) {
    bool v = true;
    EXPECT_TRUE(TryParseSwitch(off, &v)) << off;
    EXPECT_FALSE(v) << off;
  }
  for (const char* bad : {"", "yes", "of", "ON", "On", "2", "01", " on", "on ", "truee"}) {
    bool v = true;
    EXPECT_FALSE(TryParseSwitch(bad, &v)) << '"' << bad << '"';
    EXPECT_TRUE(v) << "a rejected token must leave the output alone";
  }
  bool v = true;
  EXPECT_FALSE(TryParseSwitch(nullptr, &v));
}

TEST(CheckedParse, ValidSwitchValuesTakeEffect) {
  {
    ScopedEnv trace("KOMODO_TRACE", "true");
    obs::Observability o;
    EXPECT_TRUE(o.enabled());
  }
  {
    ScopedEnv trace("KOMODO_TRACE", "off");
    EXPECT_FALSE(obs::Observability().enabled());
  }
}

using CheckedParseDeathTest = ::testing::Test;

TEST_F(CheckedParseDeathTest, MalformedTraceSwitchAborts) {
  EXPECT_DEATH(
      {
        setenv("KOMODO_TRACE", "yes", 1);
        obs::Observability o;
      },
      "KOMODO_TRACE: expected on\\|1\\|true\\|off\\|0\\|false, got \"yes\"");
}

}  // namespace
}  // namespace komodo
