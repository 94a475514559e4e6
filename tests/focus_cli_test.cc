// End-to-end checks of the REAL focus_cli binary (compiled path in
// FOCUS_CLI_PATH): enumerated flag values are validated, so a typo exits 1
// instead of silently picking a default.

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace focus {
namespace {

namespace fs = std::filesystem;

class FocusCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("focus_cli_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { fs::remove_all(root_); }

  // Runs `focus_cli <args>`; returns its exit code and fills `*output`
  // with what it printed.
  int Run(const std::string& args, std::string* output) {
    const fs::path log = root_ / "log.txt";
    const std::string cmd = std::string(FOCUS_CLI_PATH) + " " + args + " > " +
                            log.string() + " 2>&1";
    const int status = std::system(cmd.c_str());
    std::ifstream in(log);
    std::stringstream text;
    text << in.rdbuf();
    *output = text.str();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  fs::path root_;
};

TEST_F(FocusCliTest, TrainRejectsUnknownBuilderAndCriterion) {
  const std::string data = (root_ / "data.data").string();
  const std::string tree = (root_ / "model.tree").string();
  std::string output;
  ASSERT_EQ(Run("gen-class --out " + data + " --rows 400 --seed 3", &output),
            0)
      << output;

  const std::string train = "train --data " + data + " --out " + tree;
  EXPECT_EQ(Run(train + " --builder presorted_typo", &output), 1);
  EXPECT_NE(output.find("--builder must be recursive or presorted"),
            std::string::npos)
      << output;
  EXPECT_EQ(Run(train + " --criterion entropie", &output), 1);
  EXPECT_NE(output.find("--criterion must be gini or entropy"),
            std::string::npos)
      << output;
  EXPECT_FALSE(fs::exists(tree));

  // Every documented value still trains.
  for (const char* builder : {"recursive", "presorted"}) {
    for (const char* criterion : {"gini", "entropy"}) {
      EXPECT_EQ(Run(train + " --builder " + builder + " --criterion " +
                        criterion,
                    &output),
                0)
          << builder << "/" << criterion << ": " << output;
    }
  }
  EXPECT_TRUE(fs::exists(tree));
}

}  // namespace
}  // namespace focus
