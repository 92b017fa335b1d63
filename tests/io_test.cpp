#include <gtest/gtest.h>

#include <fstream>

#include "config/similarity.h"
#include "config/symmetry.h"
#include "io/csv.h"
#include "io/patterns.h"
#include "io/svg.h"
#include "tmpdir.h"

namespace apf::io {
namespace {

using config::Configuration;

TEST(PatternsTest, AllNamedPatternsHaveRequestedSize) {
  for (const auto& name : allPatternNames()) {
    for (std::size_t n : {7, 8, 12, 16, 33}) {
      const Configuration p = patternByName(name, n);
      EXPECT_EQ(p.size(), n) << name << " n=" << n;
      EXPECT_FALSE(p.hasMultiplicity()) << name << " n=" << n;
      EXPECT_GT(p.sec().radius, 0.0) << name;
    }
  }
}

TEST(PatternsTest, UnknownNameThrows) {
  EXPECT_THROW(patternByName("nope", 8), std::invalid_argument);
}

TEST(PatternsTest, PolygonHasFullSymmetry) {
  const Configuration p = polygonPattern(9);
  EXPECT_EQ(config::symmetricity(p, p.sec().center), 9);
}

TEST(PatternsTest, StarHasTwoRings) {
  const Configuration p = starPattern(10);
  auto sec = p.sec();
  int onBoundary = 0;
  for (const auto& q : p.points()) {
    if (sec.onBoundary(q)) ++onBoundary;
  }
  EXPECT_EQ(onBoundary, 5);
}

TEST(PatternsTest, GridSymmetry) {
  // A full w x h sheared grid is centro-symmetric (the shear preserves the
  // 180-degree rotation): rho = 2. A ragged grid is asymmetric.
  const Configuration full = gridPattern(12);  // 4 x 3 rectangle
  EXPECT_EQ(config::symmetricity(full, full.sec().center), 2);
  const Configuration ragged = gridPattern(11);
  EXPECT_EQ(config::symmetricity(ragged, ragged.sec().center), 1);
}

TEST(PatternsTest, MultiplicityPatterns) {
  const Configuration a = multiplicityPattern(9);
  EXPECT_EQ(a.size(), 9u);
  EXPECT_TRUE(a.hasMultiplicity());
  const Configuration b = centerMultiplicityPattern(9);
  EXPECT_TRUE(b.hasMultiplicity());
  // The doubled point of b is at the SEC center.
  const auto groups = b.grouped();
  bool centerDouble = false;
  for (const auto& g : groups) {
    if (g.count == 2 && geom::nearlyEqual(g.pos, b.sec().center,
                                          geom::Tol{1e-9, 1e-9})) {
      centerDouble = true;
    }
  }
  EXPECT_TRUE(centerDouble);
}

TEST(PatternsTest, RandomPatternSeedDeterminism) {
  const Configuration a = randomPatternByName(10, 5);
  const Configuration b = randomPatternByName(10, 5);
  const Configuration c = randomPatternByName(10, 6);
  EXPECT_TRUE(config::coincident(a, b));
  EXPECT_FALSE(config::coincident(a, c));
}

TEST(CsvTest, WritesHeaderAndRows) {
  CsvWriter csv("", {"a", "b", "c"});
  csv.row({"1", "2", "3"});
  csv.row({fmt(1.23456, 2), "x", ""});
  EXPECT_EQ(csv.str(), "a,b,c\n1,2,3\n1.23,x,\n");
}

TEST(CsvTest, WritesFile) {
  const TestTempDir tmp;
  const std::string path = tmp.file("test.csv");
  {
    CsvWriter csv(path, {"h"});
    csv.row({"v"});
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(all, "h\nv\n");
}

TEST(SvgTest, ProducesWellFormedFile) {
  const TestTempDir tmp;
  const std::string path = tmp.file("test.svg");
  SvgScene scene;
  scene.addLayer({polygonPattern(6), "#1f77b4", 0.03, false});
  scene.addLayer({starPattern(6), "#d62728", 0.03, true});
  scene.addCircle({}, 1.0, "#ddd");
  scene.addRays({}, {0.0, 1.0, 2.0}, 1.2, "#ccc");
  scene.addTrail({{0, 0}, {0.5, 0.5}, {1, 0}}, "#999");
  scene.write(path);
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("<svg"), std::string::npos);
  EXPECT_NE(all.find("</svg>"), std::string::npos);
  EXPECT_NE(all.find("<circle"), std::string::npos);
  EXPECT_NE(all.find("<polyline"), std::string::npos);
  EXPECT_NE(all.find("<line"), std::string::npos);
}

}  // namespace
}  // namespace apf::io
