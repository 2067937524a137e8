// References Widget without including its header or forward-declaring
// it, so the generated include-twice TU must not compile.
#pragma once

class Panel
{
  public:
    void attach(const Widget &w);
};
