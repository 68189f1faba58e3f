// Unit tests for dense exact matrices.
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/error.hpp"

namespace tensorlib::linalg {
namespace {

TEST(Matrix, InitializerList) {
  IntMatrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.at(1, 0), 3);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((IntMatrix{{1, 2}, {3}}), Error);
}

TEST(Matrix, OutOfRangeAtThrowsItsMessage) {
  IntMatrix m{{1, 2}, {3, 4}};
  try {
    (void)m.at(2, 0);
    FAIL() << "at(2, 0) on a 2x2 matrix must throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "Matrix index out of range");
  }
}

TEST(Check, FailingCheckThrowsErrorCarryingItsMessage) {
  const int answer = 41;
  try {
    TL_CHECK(answer == 42, "answer is " + std::to_string(answer));
    FAIL() << "a failing TL_CHECK must throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "answer is 41");
  }
}

TEST(Check, PassingCheckNeverEvaluatesItsMessage) {
  int built = 0;
  const auto message = [&] {
    ++built;
    return std::string("unused");
  };
  for (int i = 0; i < 3; ++i) TL_CHECK(i < 3, message());
  EXPECT_EQ(built, 0);
  EXPECT_THROW(TL_CHECK(false, message()), Error);
  EXPECT_EQ(built, 1);
}

TEST(Matrix, Identity) {
  const auto id = IntMatrix::identity(3);
  EXPECT_EQ(id.at(0, 0), 1);
  EXPECT_EQ(id.at(0, 1), 0);
}

TEST(Matrix, Multiply) {
  IntMatrix a{{1, 2}, {3, 4}};
  IntMatrix b{{5, 6}, {7, 8}};
  IntMatrix expect{{19, 22}, {43, 50}};
  EXPECT_EQ(a * b, expect);
}

TEST(Matrix, MultiplyVector) {
  IntMatrix a{{1, 0, 0}, {0, 1, 0}, {1, 1, 1}};
  const IntVector x{1, 2, 3};
  const IntVector expect{1, 2, 6};  // the paper's Fig. 1(b) example
  EXPECT_EQ(a * x, expect);
}

TEST(Matrix, DimensionMismatchThrows) {
  IntMatrix a{{1, 2}};
  IntMatrix b{{1, 2}};
  EXPECT_THROW(a * b, Error);
}

TEST(Matrix, AddSub) {
  IntMatrix a{{1, 2}, {3, 4}};
  IntMatrix b{{4, 3}, {2, 1}};
  IntMatrix sum{{5, 5}, {5, 5}};
  EXPECT_EQ(a + b, sum);
  EXPECT_EQ(sum - b, a);
}

TEST(Matrix, Transpose) {
  IntMatrix a{{1, 2, 3}, {4, 5, 6}};
  IntMatrix expect{{1, 4}, {2, 5}, {3, 6}};
  EXPECT_EQ(a.transposed(), expect);
}

TEST(Matrix, RowColSelect) {
  IntMatrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(a.row(1), (IntVector{4, 5, 6}));
  EXPECT_EQ(a.col(2), (IntVector{3, 6}));
  IntMatrix sel = a.selectColumns({2, 0});
  IntMatrix expect{{3, 1}, {6, 4}};
  EXPECT_EQ(sel, expect);
}

TEST(Matrix, OutOfRangeThrows) {
  IntMatrix a{{1, 2}};
  EXPECT_THROW(a.at(1, 0), Error);
  EXPECT_THROW(a.row(2), Error);
}

TEST(Matrix, RationalConversionRoundTrip) {
  IntMatrix a{{1, -2}, {0, 7}};
  EXPECT_EQ(toInteger(toRational(a)), a);
}

TEST(VectorOps, Dot) {
  EXPECT_EQ(dot(IntVector{1, 2, 3}, IntVector{4, 5, 6}), 32);
  EXPECT_THROW(dot(IntVector{1}, IntVector{1, 2}), Error);
}

TEST(VectorOps, IsZero) {
  EXPECT_TRUE(isZeroVector(IntVector{0, 0}));
  EXPECT_FALSE(isZeroVector(IntVector{0, 1}));
}

TEST(VectorOps, Primitive) {
  EXPECT_EQ(primitive(IntVector{2, 4, 6}), (IntVector{1, 2, 3}));
  EXPECT_EQ(primitive(IntVector{-2, 4}), (IntVector{1, -2}));
  EXPECT_EQ(primitive(IntVector{0, 0}), (IntVector{0, 0}));
  EXPECT_EQ(primitive(IntVector{0, -3}), (IntVector{0, 1}));
}

TEST(VectorOps, ClearDenominators) {
  const RatVector v{Rational(1, 2), Rational(1, 3), Rational(0)};
  EXPECT_EQ(clearDenominators(v), (IntVector{3, 2, 0}));
}

TEST(VectorOps, Str) {
  EXPECT_EQ(str(IntVector{1, -2}), "(1,-2)");
}

}  // namespace
}  // namespace tensorlib::linalg
