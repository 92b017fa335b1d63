#pragma once

/// \file tmpdir.h
/// A scratch directory private to the running test. ctest runs every test
/// as its own process, several at once (`ctest -j`), and two build trees
/// may run their suites side by side; a fixed path such as /tmp/apf_x lets
/// one test delete or overwrite another's files. TestTempDir names the
/// directory after the test suite, the test and the process id, under
/// TMPDIR (std::filesystem::temp_directory_path), creates it empty and
/// removes it when the test ends.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

namespace apf {

class TestTempDir {
 public:
  TestTempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "apf";
    for (const char* part : {info ? info->test_suite_name() : "none",
                             info ? info->name() : "none"}) {
      name += '-';
      name += part;
    }
    name += '-' + std::to_string(::getpid());
    // Parameterized tests carry '/' in their names.
    for (char& ch : name) {
      if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '-') ch = '_';
    }
    dir_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TestTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  TestTempDir(const TestTempDir&) = delete;
  TestTempDir& operator=(const TestTempDir&) = delete;

  const std::filesystem::path& path() const { return dir_; }
  /// Path of `name` inside the directory, as a string.
  std::string file(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace apf
