/**
 * @file
 * ASCII table pretty-printer for example/benchmark console output.
 */

#ifndef ST_UTIL_TABLE_HPP
#define ST_UTIL_TABLE_HPP

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace st {

/**
 * Fixed-column ASCII table.
 *
 * Columns are sized to their widest cell; numeric-looking cells are
 * right-aligned, everything else left-aligned. Used by the benchmark
 * harnesses to print the per-figure result series the paper reproduction
 * is judged on.
 */
class AsciiTable
{
  public:
    /** Create a table with the given column header. */
    explicit AsciiTable(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(const std::vector<std::string> &fields);

    /** Convenience overload formatting arbitrary streamable values. */
    template <typename... Ts>
    void
    row(const Ts &...values)
    {
        std::vector<std::string> fields;
        fields.reserve(sizeof...(values));
        (fields.push_back(format(values)), ...);
        addRow(fields);
    }

    /** Format one streamable value as a cell. */
    template <typename T>
    static std::string
    format(const T &value)
    {
        std::ostringstream os;
        os << value;
        return os.str();
    }

    /** Render the table. */
    void writeTo(std::ostream &os) const;

    /** Render to a string. */
    std::string str() const;

  private:
    static bool looksNumeric(const std::string &s);

    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace st

#endif // ST_UTIL_TABLE_HPP
